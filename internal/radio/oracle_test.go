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
