package tag

import (
	"math"
	"testing"

	"github.com/ipda-sim/ipda/internal/aggregate"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

func deploy(t *testing.T, nodes int, seed uint64) *Instance {
	t.Helper()
	net, err := topology.Random(topology.PaperConfig(nodes), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(net, DefaultConfig(), seed+500)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// participants lists the nodes on the spanning tree (excluding the base
// station), i.e. the nodes whose readings a query reaches.
func participants(in *Instance) []topology.NodeID {
	var out []topology.NodeID
	for i := 1; i < in.Net.N(); i++ {
		if in.Tree.Reached[i] {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}

func TestCountNearNetworkSize(t *testing.T) {
	inst := deploy(t, 400, 1)
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outcomes[0].Sum
	want := int64(len(participants(inst)))
	if got < want*9/10 || got > want {
		t.Fatalf("count %d, participants %d", got, want)
	}
}

func TestSumAccuracy(t *testing.T) {
	inst := deploy(t, 400, 2)
	readings := make([]int64, inst.Net.N())
	r := rng.New(9)
	for i := 1; i < len(readings); i++ {
		readings[i] = int64(r.Intn(50) + 1)
	}
	res, err := inst.Run(aggregate.SpecFor(aggregate.Sum), readings)
	if err != nil {
		t.Fatal(err)
	}
	var expect int64
	for _, id := range participants(inst) {
		expect += readings[id]
	}
	got := float64(res.Outcomes[0].Sum)
	if math.Abs(got-float64(expect)) > 0.1*float64(expect) {
		t.Fatalf("sum %v vs participant sum %d", got, expect)
	}
}

func TestLossFreeGridIsExact(t *testing.T) {
	net, err := topology.Grid(5, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(net, DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]int64, net.N())
	for i := range readings {
		readings[i] = int64(i)
	}
	res, err := inst.Run(aggregate.SpecFor(aggregate.Sum), readings)
	if err != nil {
		t.Fatal(err)
	}
	var expect int64
	for _, id := range participants(inst) {
		expect += readings[id]
	}
	if inst.Medium.Stats().FramesCollided == 0 && res.Outcomes[0].Sum != expect {
		t.Fatalf("loss-free TAG sum %d, want %d", res.Outcomes[0].Sum, expect)
	}
}

func TestAverageQuery(t *testing.T) {
	inst := deploy(t, 300, 4)
	readings := make([]int64, inst.Net.N())
	for i := range readings {
		readings[i] = 20
	}
	res, err := inst.Run(aggregate.SpecFor(aggregate.Average), readings)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-20) > 0.5 {
		t.Fatalf("average %v, want 20", res.Value)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("average rounds = %d", len(res.Outcomes))
	}
}

func TestTwoMessagesPerNode(t *testing.T) {
	// Section IV-A.2: TAG costs one HELLO plus one aggregate per node per
	// query. Count protocol frames (excluding MAC ACKs and retries):
	// HELLO frames ≈ N (each reached node broadcasts once), aggregate
	// data frames ≈ participants (+ retransmissions).
	inst := deploy(t, 300, 5)
	helloFrames := inst.Medium.Stats().FramesSent // Phase I is the only traffic so far
	n := uint64(inst.Net.N())
	if helloFrames < n*9/10 || helloFrames > n*11/10 {
		t.Fatalf("HELLO frames %d for %d nodes", helloFrames, n)
	}
	before := inst.Medium.Stats().FramesSent
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	// Frames counted during the round include data + ACKs + retries; data
	// sends are at least participants and the total stays within a small
	// multiple.
	frames := inst.Medium.Stats().FramesSent - before
	p := uint64(res.Outcomes[0].Participants)
	if frames < p {
		t.Fatalf("round frames %d below participants %d", frames, p)
	}
	if frames > p*4 {
		t.Fatalf("round frames %d too high for %d participants", frames, p)
	}
}

func TestValidation(t *testing.T) {
	net, _ := topology.Grid(3, 20, 50)
	if _, err := New(net, Config{}, 1); err == nil {
		t.Fatal("zero config accepted")
	}
	inst, err := New(net, DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Run(aggregate.SpecFor(aggregate.Sum), make([]int64, 3)); err == nil {
		t.Fatal("wrong-length readings accepted")
	}
}

func TestRepeatedRounds(t *testing.T) {
	inst := deploy(t, 250, 6)
	a, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	b, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcomes[0].Participants != b.Outcomes[0].Participants {
		t.Fatal("participants changed across rounds")
	}
	da := math.Abs(float64(a.Outcomes[0].Sum - b.Outcomes[0].Sum))
	if da > float64(a.Outcomes[0].Participants)/10 {
		t.Fatalf("round totals unstable: %d vs %d", a.Outcomes[0].Sum, b.Outcomes[0].Sum)
	}
}
