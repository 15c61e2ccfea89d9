package mac

import (
	"testing"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

func tdmaConfig() Config {
	cfg := DefaultConfig()
	cfg.Scheme = SchemeTDMA
	return cfg
}

func tdmaSetup(t *testing.T, net *topology.Network) (*eventsim.Sim, *radio.Medium, *MAC) {
	t.Helper()
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	m := New(sim, medium, net.N(), tdmaConfig(), rng.New(1))
	return sim, medium, m
}

// collisionFree asserts the two-hop coloring invariant: no node shares a
// slot with any node at distance one or two, so no receiver is ever in
// range of two same-slot transmitters.
func collisionFree(t *testing.T, net *topology.Network, slot []int32) {
	t.Helper()
	for i := 0; i < net.N(); i++ {
		id := topology.NodeID(i)
		if slot[id] < 0 {
			t.Fatalf("node %d unassigned", id)
		}
		for _, nb := range net.Neighbors(id) {
			if slot[nb] == slot[id] {
				t.Fatalf("one-hop neighbors %d and %d share slot %d", id, nb, slot[id])
			}
			for _, nb2 := range net.Neighbors(nb) {
				if nb2 != id && slot[nb2] == slot[id] {
					t.Fatalf("two-hop neighbors %d and %d share slot %d", id, nb2, slot[id])
				}
			}
		}
	}
}

func TestAssignSlotsCollisionFree(t *testing.T) {
	grid, err := topology.Grid(6, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	collisionFree(t, grid, assignSlots(grid, nil, new(slotScratch)))

	// Dense random fields, including disconnected ones: every node gets a
	// slot and the invariant holds regardless of reachability.
	for seed := uint64(1); seed <= 5; seed++ {
		net, err := topology.Random(topology.Config{Nodes: 300, FieldSide: 200, Range: 40}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		collisionFree(t, net, assignSlots(net, nil, new(slotScratch)))
	}
}

func TestAssignSlotsDeterministicAndReusesDst(t *testing.T) {
	net, err := topology.Random(topology.PaperConfig(200), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	a := assignSlots(net, nil, new(slotScratch))
	b := assignSlots(net, make([]int32, 0, net.N()), new(slotScratch))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment differs at node %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Reusing a previously-populated dst must give the same table.
	c := assignSlots(net, b, new(slotScratch))
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("reused-dst assignment differs at node %d", i)
		}
	}
}

func TestTDMAUnicastDelivers(t *testing.T) {
	net, err := topology.Grid(3, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim, _, m := tdmaSetup(t, net)
	dst := net.Neighbors(0)[0]
	delivered := 0
	m.SetHandler(dst, func(_ topology.NodeID, p *packet.Packet) { delivered++ })
	sim.At(0, func() {
		for i := uint16(1); i <= 4; i++ {
			m.Send(0, &packet.Packet{
				Header: packet.Header{Kind: packet.KindAggregate, Src: 0, Dst: int32(dst), Round: i},
			})
		}
	})
	sim.RunAll()
	if delivered != 4 {
		t.Fatalf("delivered %d frames, want 4", delivered)
	}
	s := m.Stats()
	if s.Retries != 0 || s.Dropped != 0 || s.Deferred != 0 {
		t.Fatalf("contention in a contention-free schedule: %+v", s)
	}
	if s.AcksSent != 4 {
		t.Fatalf("AcksSent = %d, want 4", s.AcksSent)
	}
}

// TestTDMABroadcastStormCollisionFree has every node broadcast at once —
// the worst case for CSMA — and verifies zero radio collisions and full
// neighbor coverage under the slot schedule.
func TestTDMABroadcastStormCollisionFree(t *testing.T) {
	net, err := topology.Grid(5, 30, 65)
	if err != nil {
		t.Fatal(err)
	}
	sim, medium, m := tdmaSetup(t, net)
	got := make([]int, net.N())
	for i := 0; i < net.N(); i++ {
		m.SetHandler(topology.NodeID(i), func(self topology.NodeID, p *packet.Packet) { got[self]++ })
	}
	sim.At(0, func() {
		for i := 0; i < net.N(); i++ {
			m.Send(topology.NodeID(i), &packet.Packet{
				Header: packet.Header{Kind: packet.KindHello, Src: int32(i), Dst: packet.Broadcast},
			})
		}
	})
	sim.RunAll()
	if c := medium.Stats().FramesCollided; c != 0 {
		t.Fatalf("TDMA broadcast storm produced %d collisions", c)
	}
	for i := 0; i < net.N(); i++ {
		if got[i] != net.Degree(topology.NodeID(i)) {
			t.Fatalf("node %d heard %d broadcasts, want %d", i, got[i], net.Degree(topology.NodeID(i)))
		}
	}
}

// TestTDMATransmissionsStayInOwnedSlots taps the medium and checks every
// data transmission starts exactly at one of the sender's slot boundaries.
// A tap fires at end of air, so the start is that instant minus the
// frame's airtime.
func TestTDMATransmissionsStayInOwnedSlots(t *testing.T) {
	net, err := topology.Grid(4, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim, medium, m := tdmaSetup(t, net)
	period := eventsim.Time(m.numSlots) * m.slotLen
	type tx struct {
		src topology.NodeID
		at  eventsim.Time
	}
	var txs []tx
	var decoded packet.Packet
	medium.AddTap(func(_, src, _ topology.NodeID, frame []byte, _ bool) {
		if err := packet.DecodeFrame(&decoded, frame); err != nil {
			t.Fatalf("tap saw an undecodable frame: %v", err)
		}
		txs = append(txs, tx{src, sim.Now() - medium.Duration(decoded.Size())})
	})
	for i := 0; i < net.N(); i++ {
		m.SetHandler(topology.NodeID(i), func(topology.NodeID, *packet.Packet) {})
	}
	sim.At(0, func() {
		for i := 1; i < net.N(); i++ {
			m.Send(topology.NodeID(i), &packet.Packet{
				Header: packet.Header{Kind: packet.KindHello, Src: int32(i), Dst: packet.Broadcast},
			})
		}
	})
	sim.RunAll()
	if len(txs) == 0 {
		t.Fatal("no transmissions observed")
	}
	for _, x := range txs {
		base := eventsim.Time(m.slot[x.src]) * m.slotLen
		// Phase within the period must be the sender's slot start.
		k := int((x.at - base) / period)
		for _, kk := range []int{k - 1, k, k + 1} {
			if kk < 0 {
				continue
			}
			want := base + eventsim.Time(kk)*period
			if diff := x.at - want; diff > -1e-12 && diff < 1e-12 {
				goto ok
			}
		}
		t.Fatalf("node %d transmitted at %v, not on a slot-%d boundary", x.src, x.at, m.slot[x.src])
	ok:
	}
}

// TestTDMADrawsNoRandomness pins the determinism argument: a TDMA run must
// not consume the MAC's rng stream, so slot schedules cannot diverge
// across workers or shards through backoff draws.
func TestTDMADrawsNoRandomness(t *testing.T) {
	net, err := topology.Grid(3, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	r := rng.New(42)
	m := New(sim, medium, net.N(), tdmaConfig(), r)
	probe := rng.New(42)
	for i := 0; i < net.N(); i++ {
		m.SetHandler(topology.NodeID(i), func(topology.NodeID, *packet.Packet) {})
	}
	sim.At(0, func() {
		for i := 0; i < net.N(); i++ {
			m.Send(topology.NodeID(i), &packet.Packet{
				Header: packet.Header{Kind: packet.KindHello, Src: int32(i), Dst: packet.Broadcast},
			})
		}
	})
	sim.RunAll()
	if got, want := r.Uint64(), probe.Uint64(); got != want {
		t.Fatal("TDMA consumed the MAC rng stream")
	}
}

func TestParseScheme(t *testing.T) {
	for name, want := range map[string]Scheme{"csma": SchemeCSMA, "tdma": SchemeTDMA, "slotted": SchemeTDMA} {
		got, err := ParseScheme(name)
		if err != nil || got != want {
			t.Fatalf("ParseScheme(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScheme("aloha"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if SchemeTDMA.String() != "tdma" || SchemeCSMA.String() != "csma" {
		t.Fatal("Scheme.String mismatch")
	}
}
