package linksec

import (
	"encoding/binary"
	"testing"

	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// FuzzOpen seals a share under any key era, flips bits in one byte of its
// 16-byte wire form — ciphertext, nonce, or tag — and opens the result. A
// tampered seal must fail with ErrAuth, never panic, and never yield a
// value; an untampered one (flip 0) must round-trip. The tag is a 32-bit
// PRF output, so an accepted forgery would take about 2^32 tries.
func FuzzOpen(f *testing.F) {
	// One valid seal per key era (era 0 is the inner scheme unchanged),
	// then one tamper per field.
	for _, era := range []uint64{0, 1, 2, 1 << 20} {
		f.Add(era, uint32(0x1234), int64(-271828), uint8(0), uint8(0))
	}
	for _, pos := range []uint8{0, 8, 12} {
		f.Add(uint64(0), uint32(0x1234), int64(-271828), pos, uint8(1))
	}
	f.Add(uint64(1), uint32(9), int64(42), uint8(15), uint8(0x80))
	f.Fuzz(func(t *testing.T, era uint64, nonce uint32, value int64, pos, flip uint8) {
		key, _ := EraKeys(NewPairwise(99), era).SharedKey(3, 8)
		c := newCipher(key)
		wire := wireOf(c.Seal(nonce, value))
		wire[int(pos)%len(wire)] ^= flip
		var s Sealed
		copy(s.Cipher[:], wire[:8])
		s.Nonce = binary.BigEndian.Uint32(wire[8:12])
		s.Tag = binary.BigEndian.Uint32(wire[12:16])
		got, err := c.Open(s)
		if flip == 0 {
			if err != nil || got != value {
				t.Fatalf("untampered seal of %d opened to (%d, %v)", value, got, err)
			}
			return
		}
		if err != ErrAuth {
			t.Fatalf("byte %d ^ %#x accepted: Open (%d, %v)", int(pos)%len(wire), flip, got, err)
		}
		if got != 0 {
			t.Fatalf("rejected seal leaked a value: %d", got)
		}
	})
}

// cacheOp is one decoded FuzzCipherCache step.
type cacheOp struct {
	kind  uint8 // opLink, opHasKey or opReset
	a, b  topology.NodeID
	nonce uint32
	reset Scheme // opReset's scheme
}

const (
	opLink = iota
	opHasKey
	opReset
)

// fuzzNodes bounds the node IDs FuzzCipherCache draws: 48 nodes give
// 1,128 links, enough to grow a new cache's 64-slot table twice.
const fuzzNodes = 48

// decodeCacheOps turns fuzz bytes into cache steps, four bytes a step: the
// kind, two endpoints and a nonce byte (a Reset's era for opReset). Every
// scheme is built here, so replaying the steps allocates only what the
// cache does.
func decodeCacheOps(base Scheme, data []byte) []cacheOp {
	var ops []cacheOp
	for ; len(data) >= 4 && len(ops) < 256; data = data[4:] {
		op := cacheOp{
			a:     topology.NodeID(data[1] % fuzzNodes),
			b:     topology.NodeID(data[2] % fuzzNodes),
			nonce: uint32(data[3]),
		}
		switch k := data[0] % 8; {
		case k < 4:
			op.kind = opLink
		case k < 6:
			op.kind = opHasKey
		default:
			op.kind = opReset
			op.reset = EraKeys(base, uint64(data[3]%4)) // era 0 is base itself
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzCipherCache drives a CipherCache through byte-decoded Link, HasKey
// and Reset sequences — Resets rebinding across key eras — over three
// schemes: Pairwise, RandomPredist (about half the pairs keyless) and a
// scheme without KeyChecker, so HasKey's memo is exercised too. The
// reference is the scheme's SharedKey and a fresh cipher. Within a
// generation both orientations of a link must share one cipher and no two
// links may; every cipher must hold the reference key and seal and open
// exactly like the reference; keyless pairs must stay keyless; and every
// binding must survive the table growing under it. Replaying the steps on
// the warm cache must not allocate.
func FuzzCipherCache(f *testing.F) {
	predist, err := NewRandomPredist(fuzzNodes, 100, 8, 5, rng.New(5))
	if err != nil {
		f.Fatal(err)
	}
	schemes := []Scheme{NewPairwise(99), predist, noKeyScheme{NewPairwise(7)}}

	// Seeds: every link of 12 nodes (66 links: the table grows) in both
	// orientations, with HasKey probes and era Resets between rounds.
	var grow []byte
	for round := 0; round < 2; round++ {
		for a := byte(0); a < 12; a++ {
			for b := a + 1; b < 12; b++ {
				grow = append(grow, 0, a, b, a^b, 1, b, a, a+b, 4, a, b+1, 0)
			}
		}
		grow = append(grow, 7, 0, 0, byte(round+1))
	}
	for s := range schemes {
		f.Add(uint8(s), grow)
		f.Add(uint8(s), []byte{0, 1, 2, 3, 4, 3, 5, 0, 1, 2, 1, 9, 6, 0, 0, 0, 0, 2, 1, 9, 7, 0, 0, 3, 0, 1, 2, 9})
	}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		base := schemes[int(which)%len(schemes)]
		ops := decodeCacheOps(base, data)
		cc := newCache(base)
		scheme := base
		type binding struct {
			a, b topology.NodeID
			c    *Cipher
		}
		var live []binding             // this generation's Link bindings
		byLink := map[uint64]*Cipher{} // linkID → bound cipher
		owner := map[*Cipher]uint64{}  // cipher → its link, this generation
		checkLive := func() {
			for _, l := range live {
				if c, ok := cc.Link(l.a, l.b); !ok || c != l.c {
					t.Fatalf("binding %d–%d lost: got %p, %v, want %p", l.a, l.b, c, ok, l.c)
				}
			}
		}
		for i, op := range ops {
			switch op.kind {
			case opReset:
				checkLive()
				cc.Reset(op.reset)
				scheme = op.reset
				live = live[:0]
				clear(byLink)
				clear(owner)
			case opHasKey:
				_, want := scheme.SharedKey(op.a, op.b)
				if got := cc.HasKey(op.a, op.b); got != want {
					t.Fatalf("step %d: HasKey(%d, %d) = %v, want %v", i, op.a, op.b, got, want)
				}
			case opLink:
				key, keyed := scheme.SharedKey(op.a, op.b)
				c, ok := cc.Link(op.a, op.b)
				if ok != keyed || (c == nil) == ok {
					t.Fatalf("step %d: Link(%d, %d) = %p, %v, want key %v", i, op.a, op.b, c, ok, keyed)
				}
				if !ok {
					continue
				}
				id := linkID(op.a, op.b)
				if prev, seen := byLink[id]; seen && prev != c {
					t.Fatalf("step %d: link %d–%d rebound from %p to %p in one generation", i, op.a, op.b, prev, c)
				}
				if o, used := owner[c]; used && o != id {
					t.Fatalf("step %d: link %d–%d shares a cipher with link %#x", i, op.a, op.b, o)
				}
				if _, seen := byLink[id]; !seen {
					byLink[id], owner[c] = c, id
					live = append(live, binding{op.a, op.b, c})
				}
				if c.key != key {
					t.Fatalf("step %d: link %d–%d holds the wrong key", i, op.a, op.b)
				}
				ref := newCipher(key)
				value := int64(op.nonce)*0x7E3779B97F4A7C15 - int64(i)
				want := ref.Seal(op.nonce, value)
				got := c.Seal(op.nonce, value)
				if got != want {
					t.Fatalf("step %d: sealed %+v, reference %+v", i, got, want)
				}
				if v, err := c.Open(want); err != nil || v != value {
					t.Fatalf("step %d: Open(reference seal) = %d, %v", i, v, err)
				}
			}
		}
		checkLive()

		// Warm replay: the table and slabs have grown to this sequence's
		// peak, so running it again from a Reset allocates nothing.
		replay := func() {
			cc.Reset(base)
			for _, op := range ops {
				switch op.kind {
				case opReset:
					cc.Reset(op.reset)
				case opHasKey:
					cc.HasKey(op.a, op.b)
				case opLink:
					cc.Link(op.a, op.b)
				}
			}
		}
		if allocs := testing.AllocsPerRun(2, replay); allocs != 0 {
			t.Fatalf("warm replay allocated %v times", allocs)
		}
	})
}
