package core

import (
	"testing"

	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// TestPhasesDrainTheirEvents pins the property the event kernel's lack of
// cancellation rests on: Phase I and every query round run until each
// event they scheduled — sends, retransmissions, ACK timeouts, backoffs —
// has fired, so nothing is left pending to fire inside the next phase, or
// inside the next trial on a pooled kernel. The flood and the engine are
// the same at every tree count; mtree3 runs them at m = 3.
func TestPhasesDrainTheirEvents(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    int
		set  func(*Config)
	}{
		{"csma", 2, func(*Config) {}},
		{"tdma", 2, func(c *Config) { c.MAC.Scheme = mac.SchemeTDMA }},
		{"coalesce", 2, func(c *Config) { c.Coalesce = true }},
		{"churn-repair", 2, func(c *Config) {
			c.Repair = true
			c.Faults = &fault.Config{CrashRate: 0.12, RecoverRate: 0.3, Seed: 9}
		}},
		{"mtree3", 3, func(*Config) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.set(&cfg)
			dead, repaired := 0, 0
			for seed := uint64(1); seed <= 5; seed++ {
				net, err := topology.Random(topology.PaperConfig(200), rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				inst := deployM(t, net, cfg, tc.m, seed+1000)
				if p := inst.Sim.Pending(); p != 0 {
					t.Fatalf("seed %d: %d events pending after Phase I", seed, p)
				}
				readings := make([]int64, net.N())
				for i := range readings {
					readings[i] = int64(10 + i%30)
				}
				for q := range 3 {
					for _, run := range []func() (*Result, error){inst.RunCount, func() (*Result, error) { return inst.RunSum(readings) }} {
						res, err := run()
						if err != nil {
							t.Fatalf("seed %d query %d: %v", seed, q, err)
						}
						if p := inst.Sim.Pending(); p != 0 {
							t.Fatalf("seed %d query %d: %d events pending after the round", seed, q, p)
						}
						for _, o := range res.Outcomes {
							dead += o.Dead
							repaired += o.Repaired
						}
					}
				}
			}
			if cfg.Repair && (dead == 0 || repaired == 0) {
				t.Fatalf("churn saw %d dead node-rounds and %d repairs, want both above zero", dead, repaired)
			}
		})
	}
}
