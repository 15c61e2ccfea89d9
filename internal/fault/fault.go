// Package fault injects deterministic node failures into a running
// protocol instance. A schedule combines two mechanisms:
//
//   - churn: every round, each live node crashes with probability
//     CrashRate and each dead node recovers with probability RecoverRate,
//     drawn from a private splittable stream so the same Config always
//     produces the same failure trace regardless of protocol randomness;
//   - scripted events: one-shot Crash/Recover events pinned to specific
//     rounds, for reproducing a particular failure scenario exactly.
//
// The injector drives a Target's Kill/Revive between rounds; it never
// runs inside the simulated radio medium, matching the paper's fault
// model where nodes fail between aggregation epochs ("either data
// pollution attacks or node failures, or both", Section III-A).
package fault

import (
	"fmt"
	"sort"

	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// Kind tags a scripted event.
type Kind uint8

const (
	// Crash kills the node at the event's round.
	Crash Kind = iota
	// Recover revives the node at the event's round.
	Recover
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one scripted failure or recovery, applied immediately before
// the given protocol round (0-based: Round 0 fires before any data round
// runs).
type Event struct {
	Round int
	Kind  Kind
	Node  topology.NodeID
}

// Config is a deterministic fault schedule. The zero value disables
// injection entirely.
type Config struct {
	// CrashRate is the per-round probability that each live node crashes.
	CrashRate float64
	// RecoverRate is the per-round probability that each dead node
	// recovers (a reboot, battery swap, or route re-establishment).
	RecoverRate float64
	// Seed roots the schedule's private random streams; the same seed
	// always yields the same failure trace for a given node count.
	Seed uint64
	// Events are scripted one-shots, applied before that round's churn
	// draws in slice order.
	Events []Event
}

// Enabled reports whether the schedule can ever fault a node.
func (c Config) Enabled() bool {
	return c.CrashRate > 0 || c.RecoverRate > 0 || len(c.Events) > 0
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CrashRate < 0 || c.CrashRate >= 1 {
		return fmt.Errorf("fault: CrashRate must be in [0, 1), got %v", c.CrashRate)
	}
	if c.RecoverRate < 0 || c.RecoverRate > 1 {
		return fmt.Errorf("fault: RecoverRate must be in [0, 1], got %v", c.RecoverRate)
	}
	for _, e := range c.Events {
		if e.Round < 0 {
			return fmt.Errorf("fault: event round %d negative", e.Round)
		}
		if e.Kind != Crash && e.Kind != Recover {
			return fmt.Errorf("fault: unknown event kind %d", e.Kind)
		}
	}
	return nil
}

// Target is the protocol surface the injector drives. Both core.Instance
// and tag.Instance satisfy it.
type Target interface {
	Kill(id topology.NodeID)
	Revive(id topology.NodeID)
}

// Injector replays one Config against a network of n nodes. It tracks its
// own view of which nodes are down, so the schedule is a pure function of
// (Config, n, protected set) and never depends on protocol state.
type Injector struct {
	cfg       Config
	root      rng.Stream
	down      []bool
	protected []bool
	// touched[i] is 1 + the last round a scripted event changed node i;
	// churn skips such nodes for that round so a script always wins it.
	touched []int
	events  []Event // sorted by round, stable
	next    int     // first event not yet applied
	round   int     // next round Advance expects
	o       *injObs
	qt      *qtrace.Tracer
}

type injObs struct {
	crashes  obs.Counter
	recovers obs.Counter
	dead     obs.Gauge
}

// NewInjector builds an injector for n nodes. Nodes in protect (the base
// stations — they anchor both trees) are never crashed, by churn or by
// script.
func NewInjector(n int, cfg Config, protect []topology.NodeID) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, e := range cfg.Events {
		if int(e.Node) < 0 || int(e.Node) >= n {
			return nil, fmt.Errorf("fault: event node %d out of range [0, %d)", e.Node, n)
		}
	}
	inj := &Injector{
		cfg:       cfg,
		root:      *rng.New(cfg.Seed).SplitString("fault"),
		down:      make([]bool, n),
		protected: make([]bool, n),
		touched:   make([]int, n),
		events:    append([]Event(nil), cfg.Events...),
	}
	sort.SliceStable(inj.events, func(i, j int) bool { return inj.events[i].Round < inj.events[j].Round })
	inj.protected[0] = true
	for _, id := range protect {
		if int(id) >= 0 && int(id) < n {
			inj.protected[id] = true
		}
	}
	return inj, nil
}

// SetObs attaches an instrumentation sink; instruments resolve once here.
func (inj *Injector) SetObs(sink *obs.Sink) {
	if sink == nil || sink.Reg == nil {
		inj.o = nil
		return
	}
	inj.o = &injObs{
		crashes:  sink.Reg.Counter("ipda_fault_crashes_total", "node crashes injected (churn and scripted)"),
		recovers: sink.Reg.Counter("ipda_fault_recoveries_total", "node recoveries injected (churn and scripted)"),
		dead:     sink.Reg.Gauge("ipda_fault_dead_nodes", "nodes currently down"),
	}
}

// SetQTrace attaches a causal tracer: every injected crash and recovery
// is recorded as a root-level instant, so round-health reports can line
// up acceptance loss with the fault trace that caused it. Nil detaches.
func (inj *Injector) SetQTrace(t *qtrace.Tracer) { inj.qt = t }

// Advance applies the schedule for one protocol round to tgt: scripted
// events for that round first, then the churn draws, nodes in ascending ID
// order. Rounds must be advanced consecutively from 0; at is the simulated
// time stamped on instrumentation instants.
func (inj *Injector) Advance(round int, at float64, tgt Target) {
	if round != inj.round {
		panic(fmt.Sprintf("fault: Advance(%d) out of order, want %d", round, inj.round))
	}
	inj.round++
	for inj.next < len(inj.events) && inj.events[inj.next].Round == round {
		e := inj.events[inj.next]
		inj.next++
		inj.touched[e.Node] = round + 1
		switch e.Kind {
		case Crash:
			inj.crash(e.Node, at, tgt)
		case Recover:
			inj.recover(e.Node, at, tgt)
		}
	}
	if inj.cfg.CrashRate == 0 && inj.cfg.RecoverRate == 0 {
		return
	}
	// One private stream per round: the trace for round r is independent
	// of how many draws earlier rounds consumed.
	r := inj.root.Derive(uint64(round) + 1)
	for i := range inj.down {
		id := topology.NodeID(i)
		if inj.touched[i] == round+1 {
			continue
		}
		if inj.down[i] {
			if inj.cfg.RecoverRate > 0 && r.Bool(inj.cfg.RecoverRate) {
				inj.recover(id, at, tgt)
			}
		} else if inj.cfg.CrashRate > 0 && r.Bool(inj.cfg.CrashRate) {
			inj.crash(id, at, tgt)
		}
	}
}

func (inj *Injector) crash(id topology.NodeID, at float64, tgt Target) {
	if inj.down[id] || inj.protected[id] {
		return
	}
	inj.down[id] = true
	tgt.Kill(id)
	if inj.o != nil {
		inj.o.crashes.Inc()
		inj.o.dead.Set(float64(inj.DeadCount()))
	}
	if inj.qt != nil {
		inj.qt.Instant(uint32(inj.round), qtrace.None, int32(id), "fault:crash", at)
	}
}

func (inj *Injector) recover(id topology.NodeID, at float64, tgt Target) {
	if !inj.down[id] {
		return
	}
	inj.down[id] = false
	tgt.Revive(id)
	if inj.o != nil {
		inj.o.recovers.Inc()
		inj.o.dead.Set(float64(inj.DeadCount()))
	}
	if inj.qt != nil {
		inj.qt.Instant(uint32(inj.round), qtrace.None, int32(id), "fault:recover", at)
	}
}

// DeadCount returns how many nodes are currently down.
func (inj *Injector) DeadCount() int {
	n := 0
	for _, d := range inj.down {
		if d {
			n++
		}
	}
	return n
}
