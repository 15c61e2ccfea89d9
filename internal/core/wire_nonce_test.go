package core

import (
	"testing"

	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// wireKey identifies one keystream use: the link cipher is shared by both
// endpoints, so the link is unordered.
type wireKey struct {
	lo, hi topology.NodeID
	nonce  uint32
}

type wireSeal struct {
	cipher [8]byte
	tag    uint32
}

// nonceWatch decodes every KindSlice and KindSliceBatch entry audible on a
// medium. The link cipher is counter-mode, so two different sealed shares
// under one (link, nonce) would share a keystream and leak their XOR; the
// only legitimate repeat is the same seal heard again (another observer,
// or an ARQ resend), which carries the identical ciphertext and tag.
type nonceWatch struct {
	t       *testing.T
	seen    map[wireKey]wireSeal
	entries int // slices carried in KindSliceBatch frames
	p       packet.Packet
}

func watchNonces(t *testing.T, m *radio.Medium) *nonceWatch {
	w := &nonceWatch{t: t, seen: make(map[wireKey]wireSeal)}
	m.AddTap(func(_, src, _ topology.NodeID, frame []byte, _ bool) {
		if k := packet.FrameKind(frame); k != packet.KindSlice && k != packet.KindSliceBatch {
			return
		}
		if err := packet.DecodeFrame(&w.p, frame); err != nil {
			t.Fatalf("undecodable slice frame from %d: %v", src, err)
		}
		if w.p.Kind == packet.KindSlice {
			w.add(src, topology.NodeID(w.p.Dst), w.p.Nonce, wireSeal{w.p.Cipher, w.p.Tag})
		}
		for _, e := range w.p.Entries {
			w.add(src, topology.NodeID(e.Dst), e.Nonce, wireSeal{e.Cipher, e.Tag})
			w.entries++
		}
	})
	return w
}

func (w *nonceWatch) add(a, b topology.NodeID, nonce uint32, s wireSeal) {
	if a > b {
		a, b = b, a
	}
	k := wireKey{a, b, nonce}
	if prev, ok := w.seen[k]; ok && prev != s {
		w.t.Fatalf("link %d–%d reused nonce %#x for two seals: %x/%#x and %x/%#x",
			a, b, nonce, prev.cipher, prev.tag, s.cipher, s.tag)
	}
	w.seen[k] = s
}

// TestSliceNoncesUniqueOnTheWire checks nonce uniqueness where it matters:
// on the air, for every slice any node hears, across the protocol's
// framings — per-slice CSMA frames on two trees, m = 3 trees, coalesced
// multi-slice frames, and repaired trees under churn, the last two at both
// m = 2 and m = 3 — over several COUNT and SUM rounds each.
func TestSliceNoncesUniqueOnTheWire(t *testing.T) {
	network := func(nodes int, seed uint64) *topology.Network {
		net, err := topology.Random(topology.PaperConfig(nodes), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	readings := func(n int) []int64 {
		r := make([]int64, n)
		for i := range r {
			r[i] = int64(i%37 - 9)
		}
		return r
	}
	// rounds watches in's air over COUNT and SUM queries.
	rounds := func(t *testing.T, in *Instance, rounds int) *nonceWatch {
		w := watchNonces(t, in.Medium)
		repaired := 0
		for r := 0; r < rounds; r++ {
			res, err := in.RunCount()
			if err != nil {
				t.Fatal(err)
			}
			repaired += res.Outcomes[0].Repaired
			if _, err := in.RunSum(readings(in.Net.N())); err != nil {
				t.Fatal(err)
			}
		}
		if in.Cfg.Repair && repaired == 0 {
			t.Fatal("churn schedule triggered no repairs")
		}
		return w
	}
	coreRounds := func(t *testing.T, cfg Config, nodes int, seed uint64, n int) *nonceWatch {
		in, err := New(network(nodes, seed), cfg, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		return rounds(t, in, n)
	}
	mtreeRounds := func(t *testing.T, cfg Config, nodes int, seed uint64, n int) *nonceWatch {
		return rounds(t, deployM(t, network(nodes, seed), cfg, 3, seed+1), n)
	}

	t.Run("csma", func(t *testing.T) {
		w := coreRounds(t, DefaultConfig(), 400, 11, 2)
		if len(w.seen) == 0 {
			t.Fatal("no slices heard")
		}
	})
	t.Run("mtree3", func(t *testing.T) {
		in := deployTrees(t, 600, 3, 2)
		w := watchNonces(t, in.Medium)
		for r := 0; r < 2; r++ {
			if _, err := in.RunCount(); err != nil {
				t.Fatal(err)
			}
			if _, err := in.RunSum(readings(in.Net.N())); err != nil {
				t.Fatal(err)
			}
		}
		if len(w.seen) == 0 {
			t.Fatal("no slices heard")
		}
	})
	t.Run("coalesce", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Coalesce = true
		w := coreRounds(t, cfg, 400, 12, 2)
		if w.entries == 0 {
			t.Fatal("no coalesced slices heard")
		}
	})
	t.Run("churn-repair", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Repair = true
		cfg.Faults = &fault.Config{CrashRate: 0.05, RecoverRate: 0.25, Seed: 17}
		w := coreRounds(t, cfg, 400, 13, 4)
		if len(w.seen) == 0 {
			t.Fatal("no slices heard")
		}
	})
	t.Run("mtree3-coalesce", func(t *testing.T) {
		cfg := treesConfig(3)
		cfg.Coalesce = true
		w := mtreeRounds(t, cfg, 600, 14, 2)
		if w.entries == 0 {
			t.Fatal("no coalesced slices heard")
		}
	})
	t.Run("mtree3-churn-repair", func(t *testing.T) {
		cfg := treesConfig(3)
		cfg.Repair = true
		cfg.Faults = &fault.Config{CrashRate: 0.05, RecoverRate: 0.25, Seed: 18}
		w := mtreeRounds(t, cfg, 600, 15, 4)
		if len(w.seen) == 0 {
			t.Fatal("no slices heard")
		}
	})
}
