package radio

import (
	"math"
	"testing"

	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// lineNet builds a 3-node line: 0 -- 1 -- 2, where 0 and 2 are out of range
// of each other (the classic hidden-terminal layout).
func lineNet(t *testing.T) *topology.Network {
	t.Helper()
	// Place nodes at x = 0, 45, 90 with range 50: 0-1 and 1-2 linked,
	// 0-2 not. Grid won't do; use Random config trick: build via Grid of
	// 1x3? Simplest: craft positions through topology.Random is not
	// possible, so use a tiny custom helper network via Grid spacing.
	net, err := topology.Grid(2, 45, 50) // BS at center + 4 lattice nodes
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// pair returns a fresh sim+medium over a 2-node-in-range network.
func pair(t *testing.T) (*eventsim.Sim, *Medium, *topology.Network) {
	t.Helper()
	net, err := topology.Grid(2, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	return sim, New(sim, net, PaperRate), net
}

// onDecode routes every decoded frame to f, once per decoding node, in the
// order the medium delivers them.
func onDecode(m *Medium, f func(self topology.NodeID, frame []byte)) {
	m.SetBatchReceiver(func(frame []byte, to []topology.NodeID) {
		for _, id := range to {
			f(id, frame)
		}
	})
}

func TestBroadcastDelivery(t *testing.T) {
	sim, m, net := pair(t)
	got := map[topology.NodeID][]byte{}
	onDecode(m, func(self topology.NodeID, frame []byte) { got[self] = frame })
	frame := []byte{1, 2, 3}
	sim.At(0, func() { m.Transmit(0, packet.Broadcast, frame, 30) })
	sim.RunAll()
	want := len(net.Neighbors(0))
	if len(got) != want {
		t.Fatalf("delivered to %d nodes, want %d (all neighbors)", len(got), want)
	}
	for id, f := range got {
		if string(f) != string(frame) {
			t.Fatalf("node %d got %v", id, f)
		}
	}
}

func TestUnicastOnlyAddressee(t *testing.T) {
	sim, m, net := pair(t)
	delivered := map[topology.NodeID]bool{}
	onDecode(m, func(self topology.NodeID, _ []byte) { delivered[self] = true })
	dst := net.Neighbors(0)[0]
	sim.At(0, func() { m.Transmit(0, int32(dst), []byte{9}, 20) })
	sim.RunAll()
	if len(delivered) != 1 || !delivered[dst] {
		t.Fatalf("unicast delivered to %v, want only %d", delivered, dst)
	}
}

func TestTapSeesUnaddressedFrames(t *testing.T) {
	sim, m, net := pair(t)
	type obs struct {
		observer, src topology.NodeID
		collided      bool
	}
	var taps []obs
	m.AddTap(func(observer topology.NodeID, src, dst topology.NodeID, frame []byte, collided bool) {
		taps = append(taps, obs{observer, src, collided})
	})
	dst := net.Neighbors(0)[0]
	sim.At(0, func() { m.Transmit(0, int32(dst), []byte{9}, 20) })
	sim.RunAll()
	// Every neighbor of 0 observes the frame, not just dst.
	if len(taps) != len(net.Neighbors(0)) {
		t.Fatalf("taps = %d, want %d", len(taps), len(net.Neighbors(0)))
	}
	for _, o := range taps {
		if o.src != 0 || o.collided {
			t.Fatalf("unexpected tap %+v", o)
		}
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	net := lineNet(t)
	// Find two lattice nodes both adjacent to some center node but not to
	// each other (hidden pair).
	var a, b, mid topology.NodeID = -1, -1, -1
outer:
	for i := 0; i < net.N(); i++ {
		for _, m1 := range net.Neighbors(topology.NodeID(i)) {
			for _, m2 := range net.Neighbors(topology.NodeID(i)) {
				if m1 != m2 && !net.InRange(m1, m2) {
					a, b, mid = m1, m2, topology.NodeID(i)
					break outer
				}
			}
		}
	}
	if a < 0 {
		t.Skip("no hidden pair in test topology")
	}
	sim := eventsim.New()
	m := New(sim, net, PaperRate)
	received := 0
	onDecode(m, func(id topology.NodeID, _ []byte) {
		if id == mid {
			received++
		}
	})
	// Overlapping transmissions from the hidden pair.
	sim.At(0, func() { m.Transmit(a, packet.Broadcast, []byte{1}, 100) })
	sim.At(0.0001, func() { m.Transmit(b, packet.Broadcast, []byte{2}, 100) })
	sim.RunAll()
	if received != 0 {
		t.Fatalf("hidden-terminal frames decoded at %d: %d", mid, received)
	}
	if m.Stats().FramesCollided == 0 {
		t.Fatal("no collisions recorded")
	}
}

func TestNonOverlappingFramesBothDecode(t *testing.T) {
	sim, m, net := pair(t)
	dst := net.Neighbors(0)[0]
	count := 0
	onDecode(m, func(id topology.NodeID, _ []byte) {
		if id == dst {
			count++
		}
	})
	sim.At(0, func() { m.Transmit(0, int32(dst), []byte{1}, 50) })
	// 50 bytes at 1 Mbps = 400 us; second frame well clear.
	sim.At(0.001, func() { m.Transmit(0, int32(dst), []byte{2}, 50) })
	sim.RunAll()
	if count != 2 {
		t.Fatalf("decoded %d frames, want 2", count)
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	sim, m, net := pair(t)
	dst := net.Neighbors(0)[0]
	count := 0
	onDecode(m, func(id topology.NodeID, _ []byte) {
		if id == dst {
			count++
		}
	})
	// dst starts a long transmission; 0 sends to dst during it.
	sim.At(0, func() { m.Transmit(dst, packet.Broadcast, []byte{7}, 1000) })
	sim.At(0.001, func() { m.Transmit(0, int32(dst), []byte{1}, 20) })
	sim.RunAll()
	if count != 0 {
		t.Fatal("receiver decoded a frame while transmitting")
	}
}

// TestHalfDuplexReceiverStartsMidReception is the other order: the
// addressee starts a short transmission while a frame to it is in the air
// and is idle again before that frame ends. Its own transmission bumped its
// generation, so it must not decode; with no transmission it does.
func TestHalfDuplexReceiverStartsMidReception(t *testing.T) {
	for _, interrupt := range []bool{false, true} {
		sim, m, net := pair(t)
		dst := net.Neighbors(0)[0]
		count := 0
		onDecode(m, func(id topology.NodeID, _ []byte) {
			if id == dst {
				count++
			}
		})
		sim.At(0, func() { m.Transmit(0, int32(dst), []byte{1}, 1000) }) // 8 ms
		if interrupt {
			sim.At(0.001, func() { m.Transmit(dst, packet.Broadcast, []byte{7}, 20) }) // 0.16 ms
		}
		sim.RunAll()
		want := 1
		if interrupt {
			want = 0
		}
		if count != want {
			t.Fatalf("interrupted %v: addressee decoded %d frames, want %d", interrupt, count, want)
		}
	}
}

func TestBusy(t *testing.T) {
	sim, m, net := pair(t)
	dst := net.Neighbors(0)[0]
	var during, afterT bool
	sim.At(0, func() { m.Transmit(0, int32(dst), []byte{1}, 125) }) // 1 ms
	sim.At(0.0005, func() { during = m.Busy(dst) })
	sim.At(0.002, func() { afterT = m.Busy(dst) })
	sim.RunAll()
	if !during {
		t.Fatal("channel not busy during transmission")
	}
	if afterT {
		t.Fatal("channel busy after transmission ended")
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	sim, m, _ := pair(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim.At(0, func() {
		m.Transmit(0, packet.Broadcast, []byte{1}, 1000)
		m.Transmit(0, packet.Broadcast, []byte{2}, 1000)
	})
	sim.RunAll()
}

func TestStatsAccounting(t *testing.T) {
	sim, m, net := pair(t)
	dst := net.Neighbors(0)[0]
	sim.At(0, func() { m.Transmit(0, int32(dst), []byte{1}, 40) })
	sim.At(0.01, func() { m.Transmit(dst, int32(0), []byte{2}, 60) })
	sim.RunAll()
	s := m.Stats()
	if s.FramesSent != 2 || s.BytesSent != 100 {
		t.Fatalf("stats = %+v", s)
	}
	if s.FramesDelivered != 2 {
		t.Fatalf("delivered = %d", s.FramesDelivered)
	}
	if m.TotalBytes() != 100 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
}

func TestEnergyMetering(t *testing.T) {
	sim, m, net := pair(t)
	meter, err := energy.NewMeter(net.N(), energy.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	m.SetMeter(meter)
	// The sender is a sensor: the meter's totals leave out the
	// mains-powered base station.
	src := net.Neighbors(0)[0]
	sim.At(0, func() { m.Transmit(src, 0, []byte{1}, 50) })
	sim.RunAll()
	model := energy.DefaultModel()
	if got, want := meter.MaxSpent(), 50*model.TxPerByte; got != want {
		t.Fatalf("tx charge %v, want %v", got, want)
	}
	// Every sensor neighbour of src paid the receive cost, not just the
	// addressee (the base station).
	sensors := 0
	for _, nb := range net.Neighbors(src) {
		if nb != 0 {
			sensors++
		}
	}
	if sensors == 0 {
		t.Fatal("sender has no sensor neighbour")
	}
	want := 50*model.TxPerByte + float64(sensors)*50*model.RxPerByte
	if got := meter.TotalSpent(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("total charge %v, want %v (tx plus %d receivers)", got, want, sensors)
	}
}

func TestFadingLoss(t *testing.T) {
	net, err := topology.Grid(2, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	m := New(sim, net, PaperRate)
	m.SetLoss(0.5, rng.New(9))
	dst := net.Neighbors(0)[0]
	got := 0
	onDecode(m, func(id topology.NodeID, _ []byte) {
		if id == dst {
			got++
		}
	})
	const frames = 400
	for i := 0; i < frames; i++ {
		i := i
		sim.At(eventsim.Time(i)*0.01, func() { m.Transmit(0, int32(dst), []byte{byte(i)}, 25) })
	}
	sim.RunAll()
	if got < frames*35/100 || got > frames*65/100 {
		t.Fatalf("delivered %d of %d at 50%% loss", got, frames)
	}
}

func TestSetLossValidation(t *testing.T) {
	net, _ := topology.Grid(2, 30, 50)
	m := New(eventsim.New(), net, PaperRate)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetLoss(1.0, rng.New(1))
}

func TestSingleEventPerTransmit(t *testing.T) {
	// All receptions of a frame end at the same instant, so a transmission
	// must cost exactly one simulation event regardless of degree.
	sim, m, net := pair(t)
	deg := len(net.Neighbors(0))
	if deg < 2 {
		t.Fatalf("test topology too sparse (degree %d)", deg)
	}
	delivered := 0
	onDecode(m, func(topology.NodeID, []byte) { delivered++ })
	sim.At(0, func() { m.Transmit(0, packet.Broadcast, []byte{1}, 30) })
	sim.Run(0) // fire only the t=0 kickoff, leaving the completion pending
	if got := sim.Pending(); got != 1 {
		t.Fatalf("Pending = %d after Transmit to %d neighbors, want 1", got, deg)
	}
	before := sim.Fired()
	sim.RunAll()
	if got := sim.Fired() - before; got != 1 {
		t.Fatalf("completion fired %d events, want 1", got)
	}
	if delivered != deg {
		t.Fatalf("delivered to %d nodes, want %d", delivered, deg)
	}
}

func TestTransmitAllocFree(t *testing.T) {
	// A warm transmit+drain cycle on a fixed topology must not allocate:
	// transmissions, receptions, and events all recycle through pools.
	net, err := topology.Grid(2, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	m := New(sim, net, PaperRate)
	frame := []byte{1, 2, 3}
	for i := 0; i < 8; i++ { // warm the pools and slice capacities
		m.Transmit(0, packet.Broadcast, frame, 30)
		sim.RunAll()
	}
	allocs := testing.AllocsPerRun(200, func() {
		m.Transmit(0, packet.Broadcast, frame, 30)
		sim.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("warm Transmit+drain allocated %v per cycle, want 0", allocs)
	}
}

func TestStatsCountPerKind(t *testing.T) {
	net, err := topology.Grid(2, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	m := New(sim, net, PaperRate)
	hello := (&packet.Packet{Header: packet.Header{Kind: packet.KindHello, Src: 0, Dst: packet.Broadcast}})
	frame := hello.Marshal()
	size := hello.Size()
	m.Transmit(0, packet.Broadcast, frame, size)
	sim.RunAll()
	st := m.Stats()
	k := packet.KindHello
	if st.TxFrames[k] != 1 || st.TxBytes[k] != uint64(size) {
		t.Fatalf("tx hello = %d frames, %d bytes; want 1, %d", st.TxFrames[k], st.TxBytes[k], size)
	}
	// A broadcast is addressed to every hearer: the sender's degree.
	if d := uint64(net.Degree(0)); st.RxFrames[k] != d || st.RxBytes[k] != d*uint64(size) {
		t.Fatalf("rx hello = %d frames, %d bytes; want %d, %d", st.RxFrames[k], st.RxBytes[k], d, d*uint64(size))
	}
	// The totals are the per-kind sums.
	if st.FramesSent != 1 || st.BytesSent != uint64(size) || st.FramesDelivered != st.RxFrames[k] || st.FramesCollided != 0 {
		t.Fatalf("totals %+v disagree with the per-kind counts", st)
	}
	if m.TotalBytes() != st.BytesSent {
		t.Fatalf("TotalBytes = %d, want %d", m.TotalBytes(), st.BytesSent)
	}
}

func TestDuration(t *testing.T) {
	sim := eventsim.New()
	net, _ := topology.Grid(2, 30, 50)
	m := New(sim, net, 1e6)
	if d := m.Duration(125); d != eventsim.Time(0.001) {
		t.Fatalf("Duration(125) = %v, want 1 ms", d)
	}
}

// BenchmarkTransmitDense measures the full per-frame hot path — one
// broadcast plus drain on the paper's N=400 topology (average degree ≈12).
// Pre-PR baseline (per-neighbor reception/closure/event allocations):
// 6175 ns/op, 2297 B/op, 53 allocs/op.
func BenchmarkTransmitDense(b *testing.B) {
	net, err := topology.Random(topology.PaperConfig(400), rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	sim := eventsim.New()
	m := New(sim, net, PaperRate)
	frame := make([]byte, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := topology.NodeID(i % net.N())
		m.Transmit(src, packet.Broadcast, frame, 32)
		sim.RunAll()
	}
}

// BenchmarkTransmitDenseQTraceDisabled is BenchmarkTransmitDense with
// the query-tracing hook explicitly cleared: the disabled-trace transmit
// hot path is one pointer check per frame and must stay at 0 allocs/op
// (benchgate pins this against BENCH_fig7.json's gates map).
func BenchmarkTransmitDenseQTraceDisabled(b *testing.B) {
	net, err := topology.Random(topology.PaperConfig(400), rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	sim := eventsim.New()
	m := New(sim, net, PaperRate)
	m.SetQTrace(nil, energy.DefaultModel())
	frame := make([]byte, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := topology.NodeID(i % net.N())
		m.Transmit(src, packet.Broadcast, frame, 32)
		sim.RunAll()
	}
}

// BenchmarkTransmitDenseUnicast is BenchmarkTransmitDense with each frame
// addressed to one neighbor of its sender and nothing observing the other
// hearers (no taps, tracer, or meter): the path the round datapath's
// slices, aggregates, and ACKs take, where end-of-air resolves the
// addressee's reception alone. Pinned at 0 allocs/op (benchgate gates
// entry in BENCH_fig7.json).
func BenchmarkTransmitDenseUnicast(b *testing.B) {
	net, err := topology.Random(topology.PaperConfig(400), rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	var srcs, dsts []topology.NodeID
	for i := 0; i < net.N(); i++ {
		if nbs := net.Neighbors(topology.NodeID(i)); len(nbs) > 0 {
			srcs = append(srcs, topology.NodeID(i))
			dsts = append(dsts, nbs[i%len(nbs)])
		}
	}
	sim := eventsim.New()
	m := New(sim, net, PaperRate)
	frame := make([]byte, 21)
	frame[0] = byte(packet.KindSlice)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(srcs)
		m.Transmit(srcs[k], int32(dsts[k]), frame, 32)
		sim.RunAll()
	}
}

func TestOutOfRangeNoDelivery(t *testing.T) {
	// Two isolated nodes: craft with a sparse grid (spacing > range).
	net, err := topology.Grid(2, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Find two nodes with no neighbors in common... actually spacing 200
	// with range 50 isolates all lattice nodes.
	sim := eventsim.New()
	m := New(sim, net, PaperRate)
	count := 0
	onDecode(m, func(topology.NodeID, []byte) { count++ })
	var isolated topology.NodeID = -1
	for i := 0; i < net.N(); i++ {
		if net.Degree(topology.NodeID(i)) == 0 {
			isolated = topology.NodeID(i)
			break
		}
	}
	if isolated < 0 {
		t.Skip("no isolated node")
	}
	sim.At(0, func() { m.Transmit(isolated, packet.Broadcast, []byte{1}, 30) })
	sim.RunAll()
	if count != 0 {
		t.Fatal("isolated node's frame was delivered")
	}
}
