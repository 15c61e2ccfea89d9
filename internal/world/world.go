// Package world provides per-worker simulation arenas: long-lived bundles
// of the expensive protocol state (deployment scratch, event queues, MAC
// tables, cipher pools, round buffers) that successive trials reset and
// reuse instead of reallocating.
//
// An Arena is the harness.Sweep.WorkerState payload: each sweep worker
// owns one, so no locking is needed, and because every Reset path
// reinitializes all behavior-relevant state from (net, cfg, seed), a trial
// run in a used arena is byte-identical to one run fresh — which keeps the
// harness's Workers=1 ≡ Workers=N determinism guarantee intact. The nil
// *Arena is valid and means "no reuse": every method falls back to plain
// construction, giving experiments a single code path for both modes.
//
// Within one arena, instances are keyed by a caller-chosen slot name so a
// trial that deploys several coexisting worlds (e.g. iPDA at two l values
// plus a TAG baseline) reuses each of them independently; re-requesting a
// slot invalidates the instance previously returned for it.
package world

import (
	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/tag"
	"github.com/ipda-sim/ipda/internal/topology"
)

// Arena is one worker's reusable simulation state. The zero value is ready
// to use.
type Arena struct {
	pool  topology.Pool
	cores map[string]*core.Instance // red/blue and m-tree deployments alike
	tags  map[string]*tag.Instance
	subs  []*Arena // per-shard-worker nested arenas, created on demand
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// FromTrial extracts the worker's arena from a sweep trial, or nil when
// the sweep runs with fresh worlds (no WorkerState, or a different type).
func FromTrial(t *harness.T) *Arena {
	a, _ := t.State.(*Arena)
	return a
}

// Sub returns the arena's i-th nested arena, creating it on first use —
// the per-shard-worker state of a sharded trial. Each shard worker resets
// and reuses its own sub-arena's pools, so sharding composes with world
// reuse without sharing mutable state across goroutines. A nil arena
// returns nil (which is itself a valid "no reuse" arena), keeping the
// single code path for fresh and pooled modes.
func (a *Arena) Sub(i int) *Arena {
	if a == nil {
		return nil
	}
	for len(a.subs) <= i {
		a.subs = append(a.subs, New())
	}
	return a.subs[i]
}

// Induced slices the subnetwork of parent induced by members out of the
// arena's pool (see topology.Pool.Induced); the result is valid until the
// next Induced on this arena. A nil arena builds into a throwaway pool.
// Sharded trials call this on per-shard-worker sub-arenas — each worker
// goroutine needs its own induced-subnet storage — while the trial's own
// arena keeps holding the live global deployment (the pool backs the two
// roles with separate storage).
func (a *Arena) Induced(parent *topology.Network, members []topology.NodeID) *topology.Network {
	if a == nil {
		var pool topology.Pool
		return pool.Induced(parent, members)
	}
	return a.pool.Induced(parent, members)
}

// Deploy generates a random deployment, reusing the arena's topology pool.
// The returned network aliases pooled storage: it is valid until the next
// Deploy on this arena. A nil arena delegates to topology.Random.
func (a *Arena) Deploy(c topology.Config, r *rng.Stream) (*topology.Network, error) {
	if a == nil {
		return topology.Random(c, r)
	}
	return a.pool.Random(c, r)
}

// Core returns slot's iPDA instance re-deployed over (net, cfg, seed),
// exactly as core.New would build it: MTree with the paper's two trees. A
// nil arena constructs fresh.
// Reuse retains more than buffers: the instance's linksec cipher cache
// keeps its table and cipher slabs across Reset, so a fresh deployment
// binds its links from warm memory, and a trial rerun at the same scheme
// rebinds each link to the cipher that already holds its key, cached
// keystream blocks included (see linksec.CipherCache.Reset).
func (a *Arena) Core(slot string, net *topology.Network, cfg core.Config, seed uint64) (*core.Instance, error) {
	return a.MTree(slot, net, cfg, 2, seed)
}

// core returns slot's core instance, creating it on first use; a nil
// arena returns a fresh one.
func (a *Arena) core(slot string) *core.Instance {
	if a == nil {
		return &core.Instance{}
	}
	in := a.cores[slot]
	if in == nil {
		in = &core.Instance{}
		if a.cores == nil {
			a.cores = make(map[string]*core.Instance)
		}
		a.cores[slot] = in
	}
	return in
}

// Tag returns slot's TAG instance re-deployed over (net, cfg, seed).
func (a *Arena) Tag(slot string, net *topology.Network, cfg tag.Config, seed uint64) (*tag.Instance, error) {
	if a == nil {
		return tag.New(net, cfg, seed)
	}
	in := a.tags[slot]
	if in == nil {
		in = &tag.Instance{}
		if a.tags == nil {
			a.tags = make(map[string]*tag.Instance)
		}
		a.tags[slot] = in
	}
	if err := in.Reset(net, cfg, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// MTree returns slot's core instance re-deployed over (net, cfg, seed)
// with m trees (see core.Instance.Deploy). It shares the slot namespace
// with Core. A nil arena constructs fresh.
func (a *Arena) MTree(slot string, net *topology.Network, cfg core.Config, m int, seed uint64) (*core.Instance, error) {
	in := a.core(slot)
	if err := in.Deploy(net, cfg, seed, m); err != nil {
		return nil, err
	}
	return in, nil
}
