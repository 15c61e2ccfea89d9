package tag

import "testing"

// TestPhasesDrainTheirEvents checks that TAG's tree construction and a
// COUNT epoch leave no event pending on the kernel (see core's test of
// the same name).
func TestPhasesDrainTheirEvents(t *testing.T) {
	inst := deploy(t, 400, 1)
	if p := inst.Sim.Pending(); p != 0 {
		t.Fatalf("%d events pending after tree construction", p)
	}
	if _, err := inst.RunCount(); err != nil {
		t.Fatal(err)
	}
	if p := inst.Sim.Pending(); p != 0 {
		t.Fatalf("%d events pending after the epoch", p)
	}
}
