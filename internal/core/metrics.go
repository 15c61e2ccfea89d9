package core

import (
	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/tree"
)

// Stats are the protocol engine's cumulative counters since the last
// Deploy. Like the radio's and the MAC's they are always on and count each
// event once; the metrics registry is filled from them.
type Stats struct {
	SlicesSent      uint64 // encrypted Phase II slices put on the air
	SlicesLocal     uint64 // Phase II shares an aggregator kept for itself
	SlicesAssembled uint64 // slices decrypted and folded by assemblers
	SlicesRejected  uint64 // slices dropped by authentication failure
	AggregatesSent  uint64 // Phase III partial sums sent to tree parents
	RoundsAccepted  uint64 // base-station verdicts
	RoundsRejected  uint64
	OutlierTrees    uint64 // trees voted outside the majority cluster
	Repairs         uint64 // tree re-attachments applied by localized repair
	RoundSkips      uint64 // aggregator round-skips for lack of a disjoint re-attachment
}

// layerStats is one reading of every layer's Stats.
type layerStats struct {
	radio radio.Stats
	mac   mac.Stats
	core  Stats
	fault fault.Stats
}

type kindCounts = [radio.NumKinds]uint64

// kindLabels maps packet.Kind to its metric label value.
var kindLabels = [radio.NumKinds]string{"unknown", "hello", "query", "slice", "aggregate", "ack", "slice_batch"}

// kindCounters are the radio's per-kind families, labelled by kind.
var kindCounters = [...]struct {
	name, help string
	of         func(*radio.Stats) *kindCounts
}{
	{"ipda_radio_tx_frames_total", "frames put on the air", func(s *radio.Stats) *kindCounts { return &s.TxFrames }},
	{"ipda_radio_tx_bytes_total", "bytes put on the air (incl. physical overhead)", func(s *radio.Stats) *kindCounts { return &s.TxBytes }},
	{"ipda_radio_rx_frames_total", "frames decoded at addressed receivers", func(s *radio.Stats) *kindCounts { return &s.RxFrames }},
	{"ipda_radio_rx_bytes_total", "bytes decoded at addressed receivers", func(s *radio.Stats) *kindCounts { return &s.RxBytes }},
	{"ipda_radio_collision_frames_total", "addressed receptions lost to collisions, fading, or half-duplex", func(s *radio.Stats) *kindCounts { return &s.LostFrames }},
	{"ipda_radio_drop_bytes_total", "bytes of addressed receptions lost in the air", func(s *radio.Stats) *kindCounts { return &s.LostBytes }},
}

// counters are the other published counts. The fault families exist only
// in a deployment with an injector.
var counters = [...]struct {
	name, help string
	label      []obs.Label
	fault      bool
	of         func(*layerStats) uint64
}{
	{"ipda_radio_frames_coalesced_total", "multi-slice frames put on the air by the coalescing mode", nil, false, func(s *layerStats) uint64 { return s.radio.FramesCoalesced }},
	{"ipda_mac_enqueued_total", "frames handed to the MAC", nil, false, func(s *layerStats) uint64 { return s.mac.Enqueued }},
	{"ipda_mac_sent_total", "data transmissions put on the air (incl. retransmissions)", nil, false, func(s *layerStats) uint64 { return s.mac.Sent }},
	{"ipda_mac_dropped_total", "frames abandoned after MaxAttempts or RetryLimit", nil, false, func(s *layerStats) uint64 { return s.mac.Dropped }},
	{"ipda_mac_backoffs_total", "busy senses that led to backoff", nil, false, func(s *layerStats) uint64 { return s.mac.Deferred }},
	{"ipda_mac_retries_total", "unicast retransmissions", nil, false, func(s *layerStats) uint64 { return s.mac.Retries }},
	{"ipda_mac_acks_sent_total", "link-layer acknowledgements transmitted", nil, false, func(s *layerStats) uint64 { return s.mac.AcksSent }},
	{"ipda_mac_duplicates_total", "retransmissions suppressed at receivers", nil, false, func(s *layerStats) uint64 { return s.mac.Duplicates }},
	{"ipda_fault_crashes_total", "node crashes injected (churn and scripted)", nil, true, func(s *layerStats) uint64 { return s.fault.Crashes }},
	{"ipda_fault_recoveries_total", "node recoveries injected (churn and scripted)", nil, true, func(s *layerStats) uint64 { return s.fault.Recoveries }},
	{"ipda_core_slices_sent_total", "encrypted Phase II slices put on the air", nil, false, func(s *layerStats) uint64 { return s.core.SlicesSent }},
	{"ipda_core_slices_local_total", "Phase II shares an aggregator kept for itself", nil, false, func(s *layerStats) uint64 { return s.core.SlicesLocal }},
	{"ipda_core_slices_assembled_total", "slices decrypted and folded by assemblers", nil, false, func(s *layerStats) uint64 { return s.core.SlicesAssembled }},
	{"ipda_core_slices_rejected_total", "slices dropped by authentication failure", nil, false, func(s *layerStats) uint64 { return s.core.SlicesRejected }},
	{"ipda_core_aggregates_sent_total", "Phase III partial sums sent to tree parents", nil, false, func(s *layerStats) uint64 { return s.core.AggregatesSent }},
	{"ipda_core_rounds_total", "base-station verification outcomes", []obs.Label{{Name: "verdict", Value: "accepted"}}, false, func(s *layerStats) uint64 { return s.core.RoundsAccepted }},
	{"ipda_core_rounds_total", "base-station verification outcomes", []obs.Label{{Name: "verdict", Value: "rejected"}}, false, func(s *layerStats) uint64 { return s.core.RoundsRejected }},
	{"ipda_mtree_outlier_trees_total", "trees voted outside the majority cluster", nil, false, func(s *layerStats) uint64 { return s.core.OutlierTrees }},
	{"ipda_core_repairs_total", "tree re-attachments applied by localized repair", nil, false, func(s *layerStats) uint64 { return s.core.Repairs }},
	{"ipda_core_round_skips_total", "aggregator round-skips for lack of a disjoint re-attachment", nil, false, func(s *layerStats) uint64 { return s.core.RoundSkips }},
}

// metrics fills a sink's registry from the layers' Stats: publish adds
// what they counted since the previous publish, so a sink reads as if every
// event were recorded into it, across deployments too.
type metrics struct {
	reg        *obs.Registry // nil: no sink, and publish does nothing
	kinds      [len(kindCounters)][radio.NumKinds]obs.Counter
	counters   [len(counters)]obs.Counter
	dead       obs.Gauge
	slices     obs.Histogram // per coalesced frame
	queueDepth obs.Histogram // at enqueue
	seen, now  layerStats    // published so far; being published (kept here so it does not escape)
}

// attachMetrics resolves the instruments in sink's registry and zeroes
// the published baseline, as Deploy zeroes every Stats. When Phase I ran
// it adds the flood's role counts.
func (in *Instance) attachMetrics(sink *obs.Sink, built bool) {
	p := &in.metrics
	*p = metrics{}
	if sink == nil || sink.Reg == nil {
		return
	}
	r, faults := sink.Reg, in.faults != nil
	p.reg = r
	for i, c := range kindCounters {
		for k, label := range kindLabels {
			p.kinds[i][k] = r.Counter(c.name, c.help, obs.Label{Name: "kind", Value: label})
		}
	}
	for i, c := range counters {
		if faults || !c.fault {
			p.counters[i] = r.Counter(c.name, c.help, c.label...)
		}
	}
	if faults {
		p.dead = r.Gauge("ipda_fault_dead_nodes", "nodes currently down")
	}
	p.slices = r.Histogram("ipda_radio_coalesced_slices", "slices carried per coalesced frame", radio.CoalescedBounds[:])
	p.queueDepth = r.Histogram("ipda_mac_queue_depth", "per-node queue depth observed at enqueue, including the frame just queued",
		mac.QueueDepthBounds[:])
	if !built {
		return
	}
	role := func(name string, n int) {
		r.Counter("ipda_tree_roles_total", "Phase I role decisions", obs.Label{Name: "role", Value: name}).Add(float64(n))
	}
	roles := in.builder.Roles()
	role("undecided", roles.Undecided)
	role("leaf", roles.Leaf)
	for t := range in.m {
		role(tree.Name(t), roles.Aggregators[t])
	}
}

// publish adds every layer's counts since the previous publish to the
// registry. Deploy calls it when Phase I ends and RunRound when a round
// ends; without a sink it does nothing, and it never allocates.
func (in *Instance) publish() {
	p := &in.metrics
	if p.reg == nil {
		return
	}
	now := &p.now
	*now = layerStats{radio: in.Medium.Stats(), mac: in.MAC.Stats(), core: in.stats}
	if in.faults != nil {
		now.fault = in.faults.Stats()
		p.dead.Set(float64(in.faults.DeadCount()))
	}
	for i, c := range kindCounters {
		cur, was := c.of(&now.radio), c.of(&p.seen.radio)
		for k := range cur {
			add(p.kinds[i][k], cur[k], was[k])
		}
	}
	for i, c := range counters {
		add(p.counters[i], c.of(now), c.of(&p.seen))
	}
	r, m := &now.radio, &now.mac
	p.slices.Merge(r.Coalesced[:], p.seen.radio.Coalesced[:], float64(r.SlicesCoalesced-p.seen.radio.SlicesCoalesced))
	p.queueDepth.Merge(m.QueueDepth[:], p.seen.mac.QueueDepth[:], float64(m.QueueDepthSum-p.seen.mac.QueueDepthSum))
	p.seen = *now
}

// add adds the count now − seen to c.
func add(c obs.Counter, now, seen uint64) { c.Add(float64(now - seen)) }
