package mtree

import "testing"

// TestPhasesDrainTheirEvents checks that the generalized Phase I and a
// round on core's engine leave no event pending on the shared kernel (see
// core's test of the same name).
func TestPhasesDrainTheirEvents(t *testing.T) {
	in := deploy(t, 600, 3, 2)
	if p := in.Sim.Pending(); p != 0 {
		t.Fatalf("%d events pending after Phase I", p)
	}
	if _, err := in.RunCount(); err != nil {
		t.Fatal(err)
	}
	if p := in.Sim.Pending(); p != 0 {
		t.Fatalf("%d events pending after the round", p)
	}
}
