package radio

import (
	"encoding/binary"
	"testing"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// airFrame is one transmission of a reference-model scenario.
type airFrame struct {
	src   topology.NodeID
	start eventsim.Time
	size  int
}

// rxKey names one reception: a frame index and the neighbor hearing it.
type rxKey struct {
	frame int
	nb    topology.NodeID
}

// airSpan returns the interval [start, end) frame f occupies the air.
func airSpan(m *Medium, f airFrame) (eventsim.Time, eventsim.Time) {
	return f.start, f.start + m.Duration(f.size)
}

// oracleDecodes is the O(n²) interval model of the medium: frame f decodes
// at a neighbor nb of its sender iff it was not lost to fading, no other
// frame audible at nb overlaps it, and nb transmits at no point of it.
// lost reports the fading outcome of each reception. frames must be sorted
// by start time.
func oracleDecodes(m *Medium, net *topology.Network, frames []airFrame, lost map[rxKey]bool) map[rxKey]bool {
	out := map[rxKey]bool{}
	for i, f := range frames {
		fs, fe := airSpan(m, f)
		for _, nb := range net.Neighbors(f.src) {
			ok := !lost[rxKey{i, nb}]
			for j, g := range frames {
				gs, ge := airSpan(m, g)
				if gs >= fe {
					break // this and every later frame start after f ends
				}
				if j == i || ge <= fs {
					continue
				}
				if g.src == nb || net.InRange(g.src, nb) {
					ok = false // nb transmitting, or a second audible frame
				}
			}
			out[rxKey{i, nb}] = ok
		}
	}
	return out
}

// fadingDraws replays the medium's loss draws: one per reception, in
// transmission order and then neighbor order, from a stream seeded like
// the medium's.
func fadingDraws(net *topology.Network, frames []airFrame, rate float64, seed uint64) map[rxKey]bool {
	lost := map[rxKey]bool{}
	if rate == 0 {
		return lost
	}
	r := rng.New(seed)
	for i, f := range frames {
		for _, nb := range net.Neighbors(f.src) {
			lost[rxKey{i, nb}] = r.Bool(rate)
		}
	}
	return lost
}

// simulateDecodes puts frames on a medium (frames must be sorted by start
// time) and returns every reception's decode outcome as its taps saw it.
func simulateDecodes(t *testing.T, net *topology.Network, frames []airFrame, rate float64, seed uint64) (*Medium, map[rxKey]bool) {
	t.Helper()
	sim := eventsim.New()
	m := New(sim, net, PaperRate)
	if rate > 0 {
		m.SetLoss(rate, rng.New(seed))
	}
	got := map[rxKey]bool{}
	m.AddTap(func(observer, src, dst topology.NodeID, frame []byte, collided bool) {
		k := rxKey{int(binary.LittleEndian.Uint32(frame)), observer}
		if _, dup := got[k]; dup {
			t.Fatalf("reception %+v resolved twice", k)
		}
		got[k] = !collided
	})
	for i, f := range frames {
		payload := binary.LittleEndian.AppendUint32(nil, uint32(i))
		f := f
		sim.At(f.start, func() { m.Transmit(f.src, packet.Broadcast, payload, f.size) })
	}
	sim.RunAll()
	return m, got
}

// checkAgainstOracle runs frames through the medium and the oracle and
// requires the same outcome for every (frame, receiver) pair. It returns
// the number of receptions and of collided ones.
func checkAgainstOracle(t *testing.T, net *topology.Network, frames []airFrame, rate float64, seed uint64) (total, corrupt int) {
	t.Helper()
	m, got := simulateDecodes(t, net, frames, rate, seed)
	want := oracleDecodes(m, net, frames, fadingDraws(net, frames, rate, seed))
	if len(got) != len(want) {
		t.Fatalf("medium resolved %d receptions, oracle expects %d", len(got), len(want))
	}
	for k, ok := range want {
		if got[k] != ok {
			f := frames[k.frame]
			t.Fatalf("frame %d (src %d, %v+%dB) at node %d: medium decoded=%v, oracle %v",
				k.frame, f.src, f.start, f.size, k.nb, got[k], ok)
		}
		if !ok {
			corrupt++
		}
	}
	if st := m.Stats(); st.FramesCollided != uint64(corrupt) || st.FramesDelivered != uint64(len(want)-corrupt) {
		t.Fatalf("stats %+v, oracle has %d delivered and %d collided", st, len(want)-corrupt, corrupt)
	}
	return len(want), corrupt
}

// randomFrames draws n transmissions from random senders with random
// sizes, starting inside a window short enough that many overlap. A
// sender never starts a frame before its previous one ended (the medium
// panics on that MAC bug).
func randomFrames(net *topology.Network, n int, window eventsim.Time, r *rng.Stream) []airFrame {
	busyUntil := map[topology.NodeID]eventsim.Time{}
	var frames []airFrame
	for t := eventsim.Time(0); len(frames) < n; {
		t += eventsim.Time(r.Float64()) * window / eventsim.Time(n)
		src := topology.NodeID(r.Intn(net.N()))
		size := 20 + r.Intn(100)
		if t < busyUntil[src] {
			continue
		}
		busyUntil[src] = t + eventsim.Time(float64(size)*8/PaperRate)
		frames = append(frames, airFrame{src: src, start: t, size: size})
	}
	return frames
}

func TestMediumMatchesIntervalOracle(t *testing.T) {
	paper, err := topology.Random(topology.PaperConfig(400), rng.New(2024))
	if err != nil {
		t.Fatal(err)
	}
	hidden := lineNet(t)
	for _, tc := range []struct {
		name   string
		net    *topology.Network
		frames int
		window eventsim.Time // seconds the starts are spread over
		loss   float64
	}{
		{"paper400", paper, 1500, 0.25, 0},
		{"paper400-loss", paper, 1500, 0.25, 0.1},
		{"hidden-grid", hidden, 400, 0.6, 0},
		{"hidden-grid-loss", hidden, 400, 0.6, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				frames := randomFrames(tc.net, tc.frames, tc.window, rng.New(seed))
				total, corrupt := checkAgainstOracle(t, tc.net, frames, tc.loss, seed+100)
				// Both outcomes must be well represented, or the comparison
				// proves little.
				if corrupt < total/20 || corrupt > total*19/20 {
					t.Fatalf("seed %d: %d of %d receptions corrupt; retune the window", seed, corrupt, total)
				}
			}
		})
	}
}

func TestMediumOracleCornerCases(t *testing.T) {
	net := lineNet(t)
	// a and b are both heard by mid but not by each other; c is a third
	// neighbor of mid.
	var a, b, mid, c topology.NodeID = -1, -1, -1, -1
	for i := 0; i < net.N() && c < 0; i++ {
		nbs := net.Neighbors(topology.NodeID(i))
		for _, x := range nbs {
			for _, y := range nbs {
				if x == y || net.InRange(x, y) {
					continue
				}
				for _, z := range nbs {
					if z != x && z != y {
						a, b, mid, c = x, y, topology.NodeID(i), z
					}
				}
			}
		}
	}
	if c < 0 {
		t.Fatal("hidden-terminal grid has no node with a hidden pair and a third neighbor")
	}
	const ms = eventsim.Time(0.001)
	cases := []struct {
		name   string
		frames []airFrame
		// decodes at mid, per frame
		atMid []bool
	}{
		{
			// mid starts transmitting while a's frame is still arriving.
			name:   "receiver turns transmitter mid-reception",
			frames: []airFrame{{a, 0, 250}, {mid, 1 * ms, 50}},
			atMid:  []bool{false, false},
		},
		{
			// a and b collide at mid; c lands on the collided pair; a fourth
			// frame after all have ended decodes, so the carrier state is clean
			// again.
			name:   "third frame on a collided pair",
			frames: []airFrame{{a, 0, 250}, {b, 0.5 * ms, 250}, {c, 1 * ms, 250}, {a, 10 * ms, 50}},
			atMid:  []bool{false, false, false, true},
		},
		{
			// c starts after a ended but while b, which collided with a, is
			// still in the air: c is corrupt too, though a is gone.
			name:   "late arrival on a surviving collided frame",
			frames: []airFrame{{a, 0, 100}, {b, 0.5 * ms, 250}, {c, 1.5 * ms, 50}},
			atMid:  []bool{false, false, false},
		},
		{
			name:   "back-to-back frames both decode",
			frames: []airFrame{{a, 0, 100}, {b, 1 * ms, 100}, {c, 2 * ms, 100}},
			atMid:  []bool{true, true, true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstOracle(t, net, tc.frames, 0, 1)
			_, got := simulateDecodes(t, net, tc.frames, 0, 1)
			for i, want := range tc.atMid {
				if tc.frames[i].src == mid {
					continue // a sender does not hear itself
				}
				if got[rxKey{i, mid}] != want {
					t.Fatalf("frame %d at mid decoded=%v, want %v", i, got[rxKey{i, mid}], want)
				}
			}
		})
	}
}

// sentFrame is one transmission of a fast-path scenario: an airFrame plus
// its destination and packet kind.
type sentFrame struct {
	airFrame
	dst  int32 // neighbor ID or packet.Broadcast
	kind packet.Kind
}

// carrierRef is the explicit reference for Busy: per node, the count of
// receptions in progress and the end of its own transmission. Every
// transmission goes through send, which schedules the release of its
// receptions right behind the medium's end-of-air event, so no other event
// fires between the two.
type carrierRef struct {
	net     *topology.Network
	m       *Medium
	sim     *eventsim.Sim
	active  []int
	txUntil []eventsim.Time
}

func newCarrierRef(sim *eventsim.Sim, m *Medium, net *topology.Network) *carrierRef {
	return &carrierRef{net: net, m: m, sim: sim, active: make([]int, net.N()), txUntil: make([]eventsim.Time, net.N())}
}

func (c *carrierRef) send(src topology.NodeID, dst int32, frame []byte, size int) {
	c.m.Transmit(src, dst, frame, size)
	end := c.sim.Now() + c.m.Duration(size)
	c.txUntil[src] = end
	for _, nb := range c.net.Neighbors(src) {
		c.active[nb]++
	}
	c.sim.At(end, func() {
		for _, nb := range c.net.Neighbors(src) {
			c.active[nb]--
		}
	})
}

// busy is the reference answer for Busy(id). ending names the sender of
// a transmission whose end-of-air event is running now, or is None: that
// transmission's receptions no longer count, though its release has not
// run yet.
func (c *carrierRef) busy(id topology.NodeID, ending topology.NodeID) bool {
	a := c.active[id]
	if ending != topology.None && c.net.InRange(ending, id) {
		a--
	}
	return c.txUntil[id] > c.sim.Now() || a > 0
}

// check requires Busy to match the reference at every node.
func (c *carrierRef) check(t *testing.T, where string, ending topology.NodeID) {
	t.Helper()
	for id := 0; id < c.net.N(); id++ {
		n := topology.NodeID(id)
		if got, want := c.m.Busy(n), c.busy(n, ending); got != want {
			t.Fatalf("%s at t=%v: Busy(%d) = %v, reference %v", where, c.sim.Now(), n, got, want)
		}
	}
}

// sentPayload encodes a frame's kind and scenario index.
func sentPayload(kind packet.Kind, i int) []byte {
	return binary.LittleEndian.AppendUint32([]byte{byte(kind)}, uint32(i))
}

// simulateFastPath puts frames on a medium with nothing attached but a
// batch receiver (frames must be sorted by start time). It returns every
// delivery the batch receiver saw, and checks Busy against the reference
// at every node inside every delivery and just before and just after
// every end-of-air event.
func simulateFastPath(t *testing.T, net *topology.Network, frames []sentFrame, rate float64, seed uint64) (*Medium, map[rxKey]bool) {
	t.Helper()
	sim := eventsim.New()
	m := New(sim, net, PaperRate)
	if rate > 0 {
		m.SetLoss(rate, rng.New(seed))
	}
	ref := newCarrierRef(sim, m, net)
	got := map[rxKey]bool{}
	m.SetBatchReceiver(func(frame []byte, to []topology.NodeID) {
		i := int(binary.LittleEndian.Uint32(frame[1:]))
		for _, nb := range to {
			k := rxKey{i, nb}
			if got[k] {
				t.Fatalf("reception %+v delivered twice", k)
			}
			got[k] = true
		}
		// The frame's carrier is released before its receivers run.
		ref.check(t, "in delivery", frames[i].src)
	})
	for i, f := range frames {
		i, f := i, f
		end := f.start + m.Duration(f.size)
		sim.At(end, func() { ref.check(t, "before end-of-air", topology.None) })
		sim.At(f.start, func() {
			ref.send(f.src, f.dst, sentPayload(f.kind, i), f.size)
			sim.At(end, func() { ref.check(t, "after end-of-air", topology.None) })
		})
	}
	sim.RunAll()
	return m, got
}

// randomSentFrames addresses randomFrames: mostly plain unicast to a
// random neighbor, with broadcasts and coalesced batches mixed in.
func randomSentFrames(net *topology.Network, n int, window eventsim.Time, r *rng.Stream) []sentFrame {
	var out []sentFrame
	for _, f := range randomFrames(net, n, window, r) {
		s := sentFrame{airFrame: f, dst: packet.Broadcast, kind: packet.KindSlice}
		nbs := net.Neighbors(f.src)
		switch x := r.Float64(); {
		case x < 0.15 || len(nbs) == 0:
			s.kind = packet.KindHello
		case x < 0.25:
			s.dst, s.kind = int32(nbs[r.Intn(len(nbs))]), packet.KindSliceBatch
		default:
			s.dst = int32(nbs[r.Intn(len(nbs))])
		}
		out = append(out, s)
	}
	return out
}

// checkFastPathAgainstOracle requires the batch receiver to see exactly
// the decodes the interval oracle predicts — the addressee's alone for a
// plain unicast frame, every decoding hearer's for a broadcast or a
// coalesced batch — and the addressed-delivery stats to agree. It returns
// the number of addressed receptions and of collided ones.
func checkFastPathAgainstOracle(t *testing.T, net *topology.Network, frames []sentFrame, rate float64, seed uint64) (total, corrupt int) {
	t.Helper()
	m, got := simulateFastPath(t, net, frames, rate, seed)
	air := make([]airFrame, len(frames))
	for i, f := range frames {
		air[i] = f.airFrame
	}
	oracle := oracleDecodes(m, net, air, fadingDraws(net, air, rate, seed))
	want := map[rxKey]bool{}
	for k, ok := range oracle {
		f := frames[k.frame]
		addressed := f.dst == packet.Broadcast || f.dst == int32(k.nb)
		if addressed {
			total++
			if !ok {
				corrupt++
			}
		}
		if ok && (addressed || f.kind == packet.KindSliceBatch) {
			want[k] = true
		}
	}
	for k := range want {
		if !got[k] {
			f := frames[k.frame]
			t.Fatalf("frame %d (src %d dst %d kind %d, %v+%dB) not delivered at %d; oracle decodes it",
				k.frame, f.src, f.dst, f.kind, f.start, f.size, k.nb)
		}
	}
	for k := range got {
		if !want[k] {
			f := frames[k.frame]
			t.Fatalf("frame %d (src %d dst %d kind %d) delivered at %d; oracle says no delivery",
				k.frame, f.src, f.dst, f.kind, k.nb)
		}
	}
	if st := m.Stats(); st.FramesCollided != uint64(corrupt) || st.FramesDelivered != uint64(total-corrupt) {
		t.Fatalf("stats %+v, oracle has %d delivered and %d collided", st, total-corrupt, corrupt)
	}
	return total, corrupt
}

func TestFastPathMatchesIntervalOracle(t *testing.T) {
	paper, err := topology.Random(topology.PaperConfig(400), rng.New(2024))
	if err != nil {
		t.Fatal(err)
	}
	hidden := lineNet(t)
	for _, tc := range []struct {
		name   string
		net    *topology.Network
		frames int
		window eventsim.Time
		loss   float64
	}{
		{"paper400", paper, 1500, 0.25, 0},
		{"paper400-loss", paper, 1500, 0.25, 0.1},
		{"hidden-grid", hidden, 400, 0.6, 0},
		{"hidden-grid-loss", hidden, 400, 0.6, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				frames := randomSentFrames(tc.net, tc.frames, tc.window, rng.New(seed))
				total, corrupt := checkFastPathAgainstOracle(t, tc.net, frames, tc.loss, seed+100)
				if corrupt < total/20 || corrupt > total*19/20 {
					t.Fatalf("seed %d: %d of %d addressed receptions corrupt; retune the window", seed, corrupt, total)
				}
			}
		})
	}
}

// TestCarrierExactTies ends several frames at one instant and queries
// Busy between their end-of-air events, which fire in transmission order.
// A rate of 8 bit/s makes every airtime a whole number of seconds, so the
// ends tie exactly.
func TestCarrierExactTies(t *testing.T) {
	net := lineNet(t)
	var a, b, mid topology.NodeID = -1, -1, -1
	for i := 0; i < net.N() && mid < 0; i++ {
		nbs := net.Neighbors(topology.NodeID(i))
		for _, x := range nbs {
			for _, y := range nbs {
				if x != y && !net.InRange(x, y) && mid < 0 {
					a, b, mid = x, y, topology.NodeID(i)
				}
			}
		}
	}
	if mid < 0 {
		t.Fatal("hidden-terminal grid has no hidden pair")
	}
	for _, tc := range []struct {
		name   string
		frames []sentFrame // all end at t=10
	}{
		{"unicast pair", []sentFrame{
			{airFrame{a, 0, 10}, int32(mid), packet.KindSlice},
			{airFrame{b, 5, 5}, int32(mid), packet.KindSlice},
		}},
		{"longer frame numbered first", []sentFrame{
			{airFrame{b, 0, 10}, int32(mid), packet.KindSlice},
			{airFrame{a, 2, 8}, packet.Broadcast, packet.KindHello},
		}},
		{"receiver's own frame ties", []sentFrame{
			{airFrame{a, 0, 10}, int32(mid), packet.KindSlice},
			{airFrame{mid, 4, 6}, int32(b), packet.KindSlice},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := eventsim.New()
			m := New(sim, net, 8)
			ref := newCarrierRef(sim, m, net)
			probes := 0
			probe := func(where string) {
				ref.check(t, where, topology.None)
				probes++
			}
			// Scheduled first, so it runs before every end-of-air at t=10.
			sim.At(10, func() { probe("before any end-of-air") })
			for i, f := range tc.frames {
				i, f := i, f
				sim.At(f.start, func() {
					ref.send(f.src, f.dst, sentPayload(f.kind, i), f.size)
					// Runs right behind this frame's end-of-air and before
					// the next frame's.
					sim.At(10, func() { probe("after end-of-air") })
				})
			}
			sim.RunAll()
			if probes != len(tc.frames)+1 {
				t.Fatalf("%d probes ran, want %d", probes, len(tc.frames)+1)
			}
		})
	}
	// The probes must see a carrier between two tied end-of-air events.
	sim := eventsim.New()
	m := New(sim, net, 8)
	var between bool
	sim.At(0, func() {
		m.Transmit(a, int32(mid), sentPayload(packet.KindSlice, 0), 10)
		sim.At(10, func() { between = m.Busy(mid) })
	})
	sim.At(5, func() { m.Transmit(b, int32(mid), sentPayload(packet.KindSlice, 1), 5) })
	sim.RunAll()
	if !between {
		t.Fatal("carrier released at a tied end time before the second frame's end-of-air")
	}
}
