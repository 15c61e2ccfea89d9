// Package shard scales a single simulated trial across CPU cores by
// hierarchical spatial decomposition: the path to 10^5-node fields.
//
// The hierarchical mode gives each cluster region its own channel — the
// standard frequency-planning assumption of large-scale WSN deployments —
// so the regions' event kernels never interact and execute embarrassingly
// parallel across shard workers. Each region runs a full iPDA instance
// (Phase I disjoint trees, Phase II slicing, Phase III dual aggregation)
// over the subnetwork induced by its nodes, rooted at a cluster head, and
// the heads feed the red/blue backbone: the global red total is the sum
// of regional red totals, blue likewise, and the base station accepts
// only if every region passed its own |S_b − S_r| ≤ Th check and the
// backbone sums agree within the summed slack. Shards (worker count) is
// execution-only parallelism: region outcomes depend on (subnet, config,
// region seed) alone, so tables are byte-identical for any shard count.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/world"
)

// Plan is a cluster decomposition of one deployment: the spatial
// partition plus, per region, the member list in local-ID order (cluster
// head first, so the head becomes local node 0 — the base-station role —
// in the induced subnet). Regions that own no nodes have a nil member
// list and are skipped by RunHier.
type Plan struct {
	Part    *topology.Partition
	Heads   []topology.NodeID   // global ID of each region's cluster head, -1 when empty
	Members [][]topology.NodeID // per region: head first, then the rest ascending
}

// DefaultRegions returns the region count the scale experiments use for
// an n-node field: one cluster per ~250 nodes, the size band the
// single-world experiments validated, clamped to [1, 512].
func DefaultRegions(n int) int {
	r := (n + 125) / 250
	if r < 1 {
		r = 1
	}
	if r > 512 {
		r = 512
	}
	return r
}

// NewPlan partitions net into about the requested number of regions and
// elects cluster heads: the global base station (node 0) heads its own
// region; every other region is headed by its node closest to the region
// rectangle's center (ties to the lowest ID). Purely geometric, hence a
// deterministic function of (net, regions).
func NewPlan(net *topology.Network, regions int) *Plan {
	part := topology.PartitionGrid(net, regions)
	p := &Plan{
		Part:    part,
		Heads:   make([]topology.NodeID, part.R()),
		Members: make([][]topology.NodeID, part.R()),
	}
	for r := range part.Regions {
		reg := &part.Regions[r]
		if len(reg.Owned) == 0 {
			p.Heads[r] = topology.None
			continue
		}
		head := reg.Owned[0]
		if int(part.Owner[0]) == r {
			head = 0
		} else {
			center := reg.Bounds.Center()
			best := net.Positions[head].Dist2(center)
			for _, id := range reg.Owned[1:] {
				if d := net.Positions[id].Dist2(center); d < best {
					best = d
					head = id
				}
			}
		}
		members := make([]topology.NodeID, 0, len(reg.Owned))
		members = append(members, head)
		for _, id := range reg.Owned {
			if id != head {
				members = append(members, id)
			}
		}
		p.Heads[r] = head
		p.Members[r] = members
	}
	return p
}

// HierOutcome is the backbone's view of one hierarchical COUNT query.
// Every field is a deterministic function of (plan, cfg, seeds) — no
// wall-clock, no worker- or shard-dependent values — so experiment tables
// built from it stay byte-identical across shard counts.
type HierOutcome struct {
	Regions      int   // regions that ran (own at least one node)
	Participants int   // nodes that sliced, summed over regions
	Red, Blue    int64 // backbone totals: sums of regional S_r, S_b
	Accepted     int   // regions whose every round passed its Th check
	AllAccepted  bool  // every region accepted and backbone slack holds
	Bytes        uint64
	Frames       uint64
}

// Diff returns the backbone's |S_b − S_r|.
func (o HierOutcome) Diff() int64 {
	d := o.Blue - o.Red
	if d < 0 {
		d = -d
	}
	return d
}

// RunHier executes one hierarchical COUNT query over the plan: every
// non-empty region runs an independent iPDA instance on the subnetwork
// induced by its members (head as local base station), and the regional
// totals are combined on the backbone. shards is the number of worker
// goroutines (< 1 selects 1); each worker claims the next unrun region,
// in index order, from a shared atomic counter, and runs it on the
// worker's own sub-arena of arena, so sharding composes with world reuse
// without cross-goroutine state. Which worker runs a region varies from
// run to run, but its outcome does not: outcomes are stored by region
// index, and root supplies the per-region seeds, derived by region index
// before any parallelism starts.
//
// traces, when non-nil, collects each region's query trace under the slot
// "region/<r>". Slots are keyed by region index — never by worker — and
// minted through the bundle's mutex, so the exported trace is
// byte-identical for every shards value.
func RunHier(plan *Plan, cfg core.Config, root *rng.Stream, shards int, arena *world.Arena, traces *qtrace.TrialTraces) (HierOutcome, error) {
	if shards < 1 {
		shards = 1
	}
	R := plan.Part.R()
	if shards > R {
		shards = R
	}
	seeds := make([]uint64, R)
	for r := 0; r < R; r++ {
		seeds[r] = root.Split(uint64(r) + 1).Uint64()
	}

	type regionOut struct {
		ran          bool
		participants int
		red, blue    int64
		accepted     bool
		bytes        uint64
		frames       uint64
		err          error
	}
	outs := make([]regionOut, R)

	// Sub-arenas must exist before the workers start: Sub grows the
	// parent's table and is not safe to call concurrently.
	subs := make([]*world.Arena, shards)
	for w := range subs {
		subs[w] = arena.Sub(w)
	}

	runRegion := func(w, r int) {
		o := &outs[r]
		members := plan.Members[r]
		if len(members) == 0 {
			return
		}
		o.ran = true
		sub := subs[w]
		net := sub.Induced(plan.Part.Net, members)
		rcfg := cfg
		if traces != nil {
			rcfg.QTrace = traces.Tracer(fmt.Sprintf("region/%d", r))
		}
		inst, err := sub.Core("shard/hier", net, rcfg, seeds[r])
		if err != nil {
			o.err = fmt.Errorf("shard: region %d: %w", r, err)
			return
		}
		res, err := inst.RunCount()
		if err != nil {
			o.err = fmt.Errorf("shard: region %d: %w", r, err)
			return
		}
		for _, round := range res.Outcomes {
			o.participants += round.Participants
			o.red += round.Red
			o.blue += round.Blue
		}
		o.accepted = res.Accepted
		o.bytes = inst.Medium.TotalBytes()
		o.frames = inst.Medium.Stats().FramesSent
	}

	// A worker that drew small regions moves on to the next unclaimed one
	// instead of idling while another works through a fixed stripe.
	var next atomic.Int64
	work := func(w int) {
		for r := int(next.Add(1) - 1); r < R; r = int(next.Add(1) - 1) {
			runRegion(w, r)
		}
	}
	if shards == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}

	// Backbone combination, serial and in region order: sum the regional
	// red/blue totals and apply the paper's acceptance rule region by
	// region, with the global slack the sum of regional slacks.
	var out HierOutcome
	for r := 0; r < R; r++ {
		o := &outs[r]
		if o.err != nil {
			return HierOutcome{}, o.err
		}
		if !o.ran {
			continue
		}
		out.Regions++
		out.Participants += o.participants
		out.Red += o.red
		out.Blue += o.blue
		if o.accepted {
			out.Accepted++
		}
		out.Bytes += o.bytes
		out.Frames += o.frames
	}
	out.AllAccepted = out.Accepted == out.Regions &&
		out.Diff() <= cfg.Threshold*int64(out.Regions)
	return out, nil
}
