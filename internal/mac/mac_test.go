package mac

import (
	"testing"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

func setup(t *testing.T, gridSide int, spacing float64) (*eventsim.Sim, *radio.Medium, *MAC, *topology.Network) {
	t.Helper()
	net, err := topology.Grid(gridSide, spacing, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	m := New(sim, medium, net.N(), DefaultConfig(), rng.New(1))
	return sim, medium, m, net
}

func dataPacket(src, dst topology.NodeID, round uint16) *packet.Packet {
	return &packet.Packet{
		Header: packet.Header{Kind: packet.KindAggregate, Src: int32(src), Dst: int32(dst), Round: round},
		Value:  int64(round),
	}
}

func TestUnicastDeliveredAndAcked(t *testing.T) {
	sim, _, m, net := setup(t, 2, 30)
	dst := net.Neighbors(0)[0]
	var got packet.Packet
	delivered := false
	// Delivered packets are only valid during the handler call: copy out.
	m.SetHandler(dst, func(_ topology.NodeID, p *packet.Packet) { got = *p; delivered = true })
	sim.At(0, func() { m.Send(0, dataPacket(0, dst, 7)) })
	sim.RunAll()
	if !delivered || got.Round != 7 {
		t.Fatalf("frame not delivered: %+v", got)
	}
	s := m.Stats()
	if s.AcksSent != 1 {
		t.Fatalf("AcksSent = %d, want 1", s.AcksSent)
	}
	if s.Retries != 0 || s.Dropped != 0 {
		t.Fatalf("unexpected retries/drops: %+v", s)
	}
}

func TestBroadcastNoAck(t *testing.T) {
	sim, _, m, net := setup(t, 2, 30)
	count := 0
	for i := 0; i < net.N(); i++ {
		m.SetHandler(topology.NodeID(i), func(topology.NodeID, *packet.Packet) { count++ })
	}
	sim.At(0, func() {
		m.Send(0, &packet.Packet{Header: packet.Header{Kind: packet.KindHello, Src: 0, Dst: packet.Broadcast}})
	})
	sim.RunAll()
	if count != net.Degree(0) {
		t.Fatalf("broadcast delivered %d, want %d", count, net.Degree(0))
	}
	if m.Stats().AcksSent != 0 {
		t.Fatal("broadcast was ACKed")
	}
}

func TestQueueServesFIFO(t *testing.T) {
	sim, _, m, net := setup(t, 2, 30)
	dst := net.Neighbors(0)[0]
	var order []uint16
	m.SetHandler(dst, func(_ topology.NodeID, p *packet.Packet) { order = append(order, p.Round) })
	sim.At(0, func() {
		for i := uint16(1); i <= 5; i++ {
			m.Send(0, dataPacket(0, dst, i))
		}
	})
	sim.RunAll()
	if len(order) != 5 {
		t.Fatalf("delivered %d frames: %v", len(order), order)
	}
	for i, v := range order {
		if v != uint16(i+1) {
			t.Fatalf("out of order: %v", order)
		}
	}
}

func TestRetransmissionRecoversHiddenTerminalLoss(t *testing.T) {
	// All nodes mutually in range here, so losses come only from timing
	// races; saturate the channel and verify ARQ still delivers everything
	// addressed to node 0's neighbor set.
	sim, _, m, net := setup(t, 3, 10)
	received := map[uint16]bool{}
	for i := 0; i < net.N(); i++ {
		m.SetHandler(topology.NodeID(i), func(_ topology.NodeID, p *packet.Packet) { received[p.Round] = true })
	}
	sim.At(0, func() {
		for i := 1; i < net.N(); i++ {
			m.Send(topology.NodeID(i), dataPacket(topology.NodeID(i), 0, uint16(i)))
		}
	})
	sim.RunAll()
	for i := 1; i < net.N(); i++ {
		if !received[uint16(i)] {
			t.Fatalf("frame %d lost despite ARQ (stats %+v)", i, m.Stats())
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Saturating one receiver forces some ACK losses and hence
	// retransmissions; the handler must still see each frame exactly once.
	sim, _, m, net := setup(t, 3, 10)
	seen := map[uint16]int{}
	for i := 0; i < net.N(); i++ {
		m.SetHandler(topology.NodeID(i), func(_ topology.NodeID, p *packet.Packet) { seen[p.Round]++ })
	}
	sim.At(0, func() {
		round := uint16(0)
		for i := 1; i < net.N(); i++ {
			for j := 0; j < 5; j++ {
				round++
				m.Send(topology.NodeID(i), dataPacket(topology.NodeID(i), 0, round))
			}
		}
	})
	sim.RunAll()
	for r, c := range seen {
		if c != 1 {
			t.Fatalf("frame %d delivered %d times", r, c)
		}
	}
}

// TestDropAfterRetryLimit drives a unicast into ARQ exhaustion. The jam
// comes from a hidden terminal: node 1 is in range of the destination but
// not of the sender, so the sender always senses an idle channel, sends,
// and never hears an ACK. It must give up after exactly RetryLimit
// retransmissions, never deferring.
func TestDropAfterRetryLimit(t *testing.T) {
	net, err := topology.Grid(3, 40, 50)
	if err != nil {
		t.Fatal(err)
	}
	const src, dst, jammer = 0, 2, 1 // the grid's centre, (40, 0), (0, 0)
	if !net.InRange(src, dst) || !net.InRange(jammer, dst) || net.InRange(jammer, src) {
		t.Fatal("the jammer is not hidden from the sender")
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	cfg := DefaultConfig()
	cfg.RetryLimit = 2
	cfg.MaxAttempts = 4
	m := New(sim, medium, net.N(), cfg, rng.New(2))
	sim.At(0, func() {
		medium.Transmit(jammer, packet.Broadcast, []byte{0}, 125000) // 1 s
		m.Send(src, dataPacket(src, dst, 1))
	})
	sim.RunAll()
	st := m.Stats()
	if st.Sent != uint64(cfg.RetryLimit)+1 || st.Retries != uint64(cfg.RetryLimit) || st.Deferred != 0 || st.Dropped != 1 {
		t.Fatalf("stats %+v, want Sent %d, Retries %d, Deferred 0, Dropped 1",
			st, cfg.RetryLimit+1, cfg.RetryLimit)
	}
	if m.queues[src].len != 0 {
		t.Fatal("queue not drained after drop")
	}
}

func TestQueueContinuesAfterDrop(t *testing.T) {
	net, err := topology.Grid(2, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	cfg := DefaultConfig()
	cfg.RetryLimit = 1
	m := New(sim, medium, net.N(), cfg, rng.New(3))
	dst := net.Neighbors(0)[0]
	delivered := 0
	m.SetHandler(dst, func(topology.NodeID, *packet.Packet) { delivered++ })
	sim.At(0, func() {
		medium.Transmit(dst, packet.Broadcast, []byte{0}, 6250) // 50 ms jam
		m.Send(0, dataPacket(0, dst, 1))                        // mostly doomed
		m.Send(0, dataPacket(0, dst, 2))                        // must still flow
	})
	sim.RunAll()
	if delivered == 0 {
		t.Fatal("queue stalled")
	}
}

func TestCarrierSenseDefers(t *testing.T) {
	sim, medium, m, net := setup(t, 2, 30)
	dst := net.Neighbors(0)[0]
	count := 0
	m.SetHandler(dst, func(topology.NodeID, *packet.Packet) { count++ })
	var blocker topology.NodeID = -1
	for _, o := range net.Neighbors(0) {
		if o != dst {
			blocker = o
			break
		}
	}
	if blocker < 0 {
		t.Skip("no blocker")
	}
	sim.At(0, func() {
		medium.Transmit(blocker, packet.Broadcast, []byte{9}, 2500) // 20 ms
		m.Send(0, dataPacket(0, dst, 1))
	})
	sim.RunAll()
	if count != 1 {
		t.Fatalf("delivered %d", count)
	}
	if m.Stats().Deferred == 0 {
		t.Fatal("no carrier-sense deferral recorded")
	}
}

func TestFadingForcesRetriesNotDuplicates(t *testing.T) {
	// 30% fading loss hits both data and ACK frames: retransmissions must
	// recover data while duplicate suppression keeps delivery exactly
	// once.
	net, err := topology.Grid(3, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	medium.SetLoss(0.3, rng.New(5))
	m := New(sim, medium, net.N(), DefaultConfig(), rng.New(6))
	seen := map[uint16]int{}
	for i := 0; i < net.N(); i++ {
		m.SetHandler(topology.NodeID(i), func(_ topology.NodeID, p *packet.Packet) { seen[p.Round]++ })
	}
	const frames = 40
	sim.At(0, func() {
		for r := uint16(1); r <= frames; r++ {
			src := topology.NodeID(int(r)%(net.N()-1) + 1)
			m.Send(src, dataPacket(src, 0, r))
		}
	})
	sim.RunAll()
	delivered, dups := 0, 0
	for _, c := range seen {
		delivered++
		if c > 1 {
			dups++
		}
	}
	if dups > 0 {
		t.Fatalf("%d duplicated deliveries", dups)
	}
	if delivered < frames*85/100 {
		t.Fatalf("delivered %d of %d under 30%% fading", delivered, frames)
	}
	if m.Stats().Retries == 0 {
		t.Fatal("no retries under fading")
	}
}

func TestRetransmissionKeepsFullSenseBudget(t *testing.T) {
	// A frame that has burned 5 of its ARQ retries must still get the full
	// MaxAttempts carrier-sense budget on its next transmission attempt.
	// The old code seeded the sense counter with the retry count, so with
	// MaxAttempts = 6 a 5th retransmission was dropped on its first busy
	// sense. Recreate exactly the queue state checkAck reschedules from,
	// jam the channel for MaxAttempts-1 busy senses, and require delivery.
	net, err := topology.Grid(2, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	cfg := DefaultConfig()
	cfg.MaxAttempts = 6
	m := New(sim, medium, net.N(), cfg, rng.New(11))
	dst := net.Neighbors(0)[0]
	delivered := 0
	m.SetHandler(dst, func(topology.NodeID, *packet.Packet) { delivered++ })
	budget := uint64(cfg.MaxAttempts - 1)
	jamBuf := make([]byte, 125) // 1 ms of airtime at PaperRate
	var jam func()
	jam = func() {
		// Keep the channel busy until the frame has deferred
		// MaxAttempts-1 times, then fall silent so the next sense wins.
		if m.stats.Deferred >= budget {
			return
		}
		medium.Transmit(dst, packet.Broadcast, jamBuf, len(jamBuf))
		sim.After(0.001, jam)
	}
	sim.At(0, func() {
		pkt := dataPacket(0, dst, 1)
		m.seq[0]++
		pkt.Seq = m.seq[0]
		m.queues[0].push(&frameState{pkt: *pkt, retries: 5})
		m.busy[0] = true
		m.scheduleAttempt(0, 0, 5) // what checkAck schedules after retry 5
		jam()
	})
	sim.RunAll()
	if m.stats.Deferred != budget {
		t.Fatalf("Deferred = %d, want %d", m.stats.Deferred, budget)
	}
	if m.stats.Dropped != 0 {
		t.Fatalf("frame dropped after %d busy senses: %+v", budget, m.Stats())
	}
	if delivered != 1 {
		t.Fatalf("delivered %d frames, want 1 (stats %+v)", delivered, m.Stats())
	}
}

func TestQueueDepthCountedAtEnqueue(t *testing.T) {
	// The queue-depth histogram must include the frame being enqueued:
	// three back-to-back sends from one node count depths 1, 2, 3.
	sim, _, m, net := setup(t, 2, 30)
	dst := net.Neighbors(0)[0]
	sim.At(0, func() {
		for i := uint16(1); i <= 3; i++ {
			m.Send(0, dataPacket(0, dst, i))
		}
	})
	sim.RunAll()
	st := m.Stats()
	// Bounds {0, 1, 2, 4, …}: depth 1 falls in bucket 1, 2 in 2, 3 in 3.
	want := [len(QueueDepthBounds) + 1]uint64{0, 1, 1, 1}
	if st.Enqueued != 3 || st.QueueDepthSum != 1+2+3 || st.QueueDepth != want {
		t.Fatalf("queue depth histogram count=%d sum=%d buckets=%v, want count=3 sum=6 buckets=%v",
			st.Enqueued, st.QueueDepthSum, st.QueueDepth, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Stats {
		net, _ := topology.Grid(3, 20, 50)
		sim := eventsim.New()
		medium := radio.New(sim, net, radio.PaperRate)
		m := New(sim, medium, net.N(), DefaultConfig(), rng.New(7))
		sim.At(0, func() {
			for i := 1; i < net.N(); i++ {
				m.Send(topology.NodeID(i), dataPacket(topology.NodeID(i), 0, uint16(i)))
			}
		})
		sim.RunAll()
		return m.Stats()
	}
	if run() != run() {
		t.Fatal("non-deterministic MAC")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(eventsim.New(), nil, 1, Config{}, rng.New(1))
}

// TestBatchedDeliveryAliasesScratch pins the sharing contract of the
// batched reception datapath: every handler a coalesced frame reaches
// receives the MAC's shared decode scratch — one decode, no per-receiver
// copy.
func TestBatchedDeliveryAliasesScratch(t *testing.T) {
	sim, _, m, net := setup(t, 2, 30)
	nbs := net.Neighbors(0)
	if len(nbs) < 2 {
		t.Fatalf("grid gives node 0 only %d neighbors", len(nbs))
	}
	a, b := nbs[0], nbs[1]
	var gotA, gotB *packet.Packet
	m.SetHandler(a, func(_ topology.NodeID, p *packet.Packet) { gotA = p })
	m.SetHandler(b, func(_ topology.NodeID, p *packet.Packet) { gotB = p })
	sim.At(0, func() {
		m.Send(0, &packet.Packet{
			Header: packet.Header{Kind: packet.KindSliceBatch, Src: 0, Dst: packet.Broadcast, Round: 7},
			Entries: []packet.SliceEntry{
				{Dst: int32(a), Nonce: 41},
				{Dst: int32(b), Nonce: 42},
			},
		})
	})
	sim.RunAll()
	if gotA == nil || gotB == nil {
		t.Fatal("handlers not called")
	}
	if gotA != &m.rxScratch || gotB != &m.rxScratch {
		t.Error("handler got a copy, want the shared scratch")
	}
}

// TestBatchedResolveAllocs pins the batched reception path at zero
// steady-state allocations: after warm-up, a full unicast exchange —
// send, carrier sense, decode-once batch delivery, ACK, ARQ resolution —
// reuses pooled storage only.
func TestBatchedResolveAllocs(t *testing.T) {
	sim, _, m, net := setup(t, 2, 30)
	dst := net.Neighbors(0)[0]
	for i := 0; i < net.N(); i++ {
		m.SetHandler(topology.NodeID(i), func(topology.NodeID, *packet.Packet) {})
	}
	pkt := dataPacket(0, dst, 1)
	send := func() { m.Send(0, pkt) }
	for i := 0; i < 3; i++ { // warm pools: frames, events, tx records
		sim.At(sim.Now()+1, send)
		sim.RunAll()
	}
	allocs := testing.AllocsPerRun(100, func() {
		sim.At(sim.Now()+1, send)
		sim.RunAll()
	})
	if allocs > 0 {
		t.Errorf("batched resolve allocates %.1f times per exchange, want 0", allocs)
	}
}

// TestRetransmissionAfterLostAckSuppressed jams the receiver's channel
// right after it decodes a data frame, so its ACK is never sent: the
// sender retransmits the same frame, which the receiver must acknowledge
// but not deliver again.
func TestRetransmissionAfterLostAckSuppressed(t *testing.T) {
	sim, med, m, net := setup(t, 2, 30)
	nbs := net.Neighbors(0)
	if len(nbs) < 2 {
		t.Fatalf("grid gives node 0 only %d neighbors", len(nbs))
	}
	src, dst := nbs[0], topology.NodeID(0)
	jammer := nbs[1]
	if !net.InRange(jammer, dst) {
		t.Fatal("jammer out of the receiver's range")
	}
	delivered := 0
	m.SetHandler(dst, func(topology.NodeID, *packet.Packet) { delivered++ })
	jammed := false
	med.AddTap(func(observer, from, to topology.NodeID, frame []byte, collided bool) {
		if jammed || observer != dst || from != src || collided {
			return
		}
		jammed = true
		// Keep dst's carrier busy across its SIFS: the ACK is suppressed.
		sim.After(DefaultConfig().SIFS/2, func() { med.Transmit(jammer, packet.Broadcast, []byte{0}, 40) })
	})
	sim.At(0, func() { m.Send(src, dataPacket(src, dst, 3)) })
	sim.RunAll()
	s := m.Stats()
	if !jammed || s.Retries == 0 {
		t.Fatalf("test premise broken: jammed=%v, stats %+v", jammed, s)
	}
	if delivered != 1 {
		t.Fatalf("frame delivered %d times, want 1 (stats %+v)", delivered, s)
	}
	if s.Duplicates == 0 || s.AcksSent == 0 || s.Dropped != 0 {
		t.Fatalf("retransmission not suppressed and acknowledged: %+v", s)
	}
}

// receive hands m an encoded data frame from src to dst carrying seq, as
// the medium does after a clean decode, and reports whether it reached
// dst's handler.
func receive(m *MAC, src, dst topology.NodeID, seq uint16) bool {
	p := dataPacket(src, dst, 1)
	p.Seq = seq
	delivered := false
	m.SetHandler(dst, func(topology.NodeID, *packet.Packet) { delivered = true })
	m.onBatch(p.Marshal(), []topology.NodeID{dst})
	m.SetHandler(dst, nil)
	return delivered
}

func TestDuplicateSeqZeroAfterWrap(t *testing.T) {
	sim, _, m, net := setup(t, 2, 30)
	dst := net.Neighbors(0)[0]
	// The sender's 16-bit counter wraps: its next frames carry Seq 0, 1.
	m.seq[0] = 0xffff
	var seqs []uint16
	m.SetHandler(dst, func(_ topology.NodeID, p *packet.Packet) { seqs = append(seqs, p.Seq) })
	sim.At(0, func() {
		m.Send(0, dataPacket(0, dst, 1))
		m.Send(0, dataPacket(0, dst, 2))
	})
	sim.RunAll()
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Fatalf("delivered seqs %v, want [0 1]", seqs)
	}
	// A repeat of Seq 0 is still a duplicate, on a link that starts at 0.
	other := net.Neighbors(0)[1]
	if !receive(m, other, 0, 0) {
		t.Fatal("first frame with Seq 0 taken for a duplicate")
	}
	if receive(m, other, 0, 0) {
		t.Fatal("repeated Seq 0 delivered twice")
	}
	if !receive(m, other, 0, 1) {
		t.Fatal("next seq suppressed")
	}
}

// TestResetRelaysSeqTable moves one MAC between topologies: a denser one
// must grow the duplicate-suppression table to its link count, and a
// sparser one must start from cleared slots, not the previous run's.
func TestResetRelaysSeqTable(t *testing.T) {
	sparse, err := topology.Grid(2, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := topology.Random(topology.PaperConfig(200), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	med := radio.New(sim, sparse, radio.PaperRate)
	m := New(sim, med, sparse.N(), DefaultConfig(), rng.New(1))
	links := func(net *topology.Network) int {
		e := 0
		for i := 0; i < net.N(); i++ {
			e += net.Degree(topology.NodeID(i))
		}
		return e
	}
	// every delivers seq on every directed link of net and counts the
	// frames that reached their handler.
	every := func(net *topology.Network, seq uint16) int {
		n := 0
		for i := 0; i < net.N(); i++ {
			for _, nb := range net.Neighbors(topology.NodeID(i)) {
				if receive(m, topology.NodeID(i), nb, seq) {
					n++
				}
			}
		}
		return n
	}
	if got := every(sparse, 5); got != links(sparse) {
		t.Fatalf("sparse run delivered %d of %d", got, links(sparse))
	}
	for _, net := range []*topology.Network{dense, sparse} {
		sim.Reset()
		med.Reset(net)
		m.Reset(net.N(), DefaultConfig(), rng.New(1))
		if len(m.lastSeq) != links(net) {
			t.Fatalf("table has %d slots for %d directed links", len(m.lastSeq), links(net))
		}
		if got := every(net, 5); got != links(net) {
			t.Fatalf("after Reset, %d of %d first frames delivered", got, links(net))
		}
		if got := every(net, 5); got != 0 {
			t.Fatalf("after Reset, %d repeats delivered", got)
		}
	}
}
