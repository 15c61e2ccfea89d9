package core

import (
	"testing"

	"github.com/ipda-sim/ipda/internal/linksec"
	"github.com/ipda-sim/ipda/internal/topology"
)

// TestSliceNonceIdentityNeverRepeats is the by-construction half of the
// wraparound regression: the effective nonce identity an observer must
// never see twice under one key is (key era, wire nonce). Walking more
// than 2^16 cumulative rounds — past the uint16 wire wraparound at round
// 65,536 — every identity must be distinct, for every direction and
// slice index the protocol emits.
func TestSliceNonceIdentityNeverRepeats(t *testing.T) {
	type ident struct {
		era   uint64
		nonce uint32
	}
	src, dst := topology.NodeID(5), topology.NodeID(9)
	const rounds = 1<<16 + 1<<14 // > 65,535 cumulative rounds
	seen := make(map[ident]uint64, rounds)
	for r := uint64(1); r <= rounds; r++ {
		era := r >> 16 // the rotation advanceRound applies
		n := sliceNonce(uint16(r), src, dst, 0, 3)
		id := ident{era, n}
		if prev, dup := seen[id]; dup {
			t.Fatalf("rounds %d and %d share nonce identity (era %d, nonce %#x)", prev, r, era, n)
		}
		seen[id] = r
	}
	// Sanity: without the era component the wire nonce alone DOES repeat
	// at exactly one wraparound apart — the bug this PR fixes.
	wrapped := uint64(1 + 1<<16)
	if a, b := sliceNonce(uint16(1), src, dst, 0, 0), sliceNonce(uint16(wrapped), src, dst, 0, 0); a != b {
		t.Fatalf("wire nonces unexpectedly differ across the wraparound: %#x vs %#x", a, b)
	}
}

// TestEraRekeyDistinctCiphertexts is the end-to-end half: sealing the
// same share on the same link with the same wire nonce, one wraparound
// apart in cumulative rounds, must produce distinct ciphertexts and tags
// — because the era rotation rebinds every link key in between. It also proves the network keeps operating across the
// boundary: a query run after 65,535 cumulative rounds still verifies.
func TestEraRekeyDistinctCiphertexts(t *testing.T) {
	// One subtest, named for the link cipher (AES-CTR).
	t.Run("aes", func(t *testing.T) {
		cfg := DefaultConfig()
		in := deploy(t, 200, 42, cfg)

		// A keyed aggregator link to seal on, independent of the round
		// machinery: any aggregator and one of its tree neighbors.
		var src, dst topology.NodeID
		for i := 1; i < in.Net.N() && dst == 0; i++ {
			id := topology.NodeID(i)
			if in.Trees.Tree[id] != 0 {
				continue
			}
			for _, nb := range in.Trees.Heard[0][id] {
				if nb != id && in.ciphers.HasKey(id, nb) {
					src, dst = id, nb
					break
				}
			}
		}
		if dst == 0 {
			t.Fatal("no keyed aggregator link found")
		}

		const share = int64(424242)
		nonce := sliceNonce(1, src, dst, 0, 0) // wire round 1's nonce
		seal := func() linksec.Sealed {
			reqs := []linksec.SealReq{{Src: src, Dst: dst, Nonce: nonce, Value: share}}
			in.ciphers.SealBatch(reqs)
			if !reqs[0].OK {
				t.Fatal("seal failed: link lost its key")
			}
			return reqs[0].Sealed
		}

		if in.KeyEra() != 0 {
			t.Fatalf("fresh instance in era %d", in.KeyEra())
		}
		era0 := seal()

		// Fast-forward the lifetime counter to just before the wire
		// wraparound and run a real query across it: the counter passes
		// 65,536 and the era must rotate mid-query without breaking
		// verification on either side of the boundary.
		in.round = 1<<16 - 1
		res, err := in.RunCount()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatal("COUNT across the era boundary was rejected")
		}
		if in.Rounds() != 1<<16 || in.KeyEra() != 1 {
			t.Fatalf("after the boundary query: round %d era %d, want %d and 1", in.Rounds(), in.KeyEra(), 1<<16)
		}

		// Same link, same wire nonce, one wraparound later: era 1 keys
		// must yield a different ciphertext AND a different tag — the
		// (key, nonce) pair was never reused.
		era1 := seal()
		if era1.Cipher == era0.Cipher {
			t.Fatalf("ciphertext reused across the wraparound: %x", era0.Cipher)
		}
		if era1.Tag == era0.Tag {
			t.Fatalf("authentication tag reused across the wraparound: %#x", era0.Tag)
		}

		// And the rotation is deterministic: a second instance walked
		// to the same era seals identically (the rekey is a pure
		// function of seed and era, preserving reproducibility).
		in2 := deploy(t, 200, 42, cfg)
		in2.round = 1<<16 - 1
		if _, err := in2.RunCount(); err != nil {
			t.Fatal(err)
		}
		reqs := []linksec.SealReq{{Src: src, Dst: dst, Nonce: nonce, Value: share}}
		in2.ciphers.SealBatch(reqs)
		if reqs[0].Sealed != era1 {
			t.Fatal("era-1 sealing is not deterministic across instances")
		}
	})
}

// TestEraSchemeKeyAgreementUnchanged pins the property that makes the era
// rotation invisible to everything but the ciphertext bytes: which pairs
// share a key — and therefore target selection and every rng draw — is
// decided by the inner scheme alone.
func TestEraSchemeKeyAgreementUnchanged(t *testing.T) {
	inner := linksec.NewPairwise(7)
	wrapped := linksec.EraKeys(inner, 3)
	for a := topology.NodeID(1); a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			ik, iok := inner.SharedKey(a, b)
			wk, wok := wrapped.SharedKey(a, b)
			if iok != wok {
				t.Fatalf("era wrapping changed key existence for (%d,%d)", a, b)
			}
			if iok && ik == wk {
				t.Fatalf("era 3 derived the era-0 key for (%d,%d)", a, b)
			}
			if kc, ok := wrapped.(linksec.KeyChecker); ok && kc.HasKey(a, b) != iok {
				t.Fatalf("HasKey disagrees with SharedKey for (%d,%d)", a, b)
			}
		}
	}
	if linksec.EraKeys(inner, 0) != linksec.Scheme(inner) {
		t.Fatal("era 0 must be the inner scheme unchanged")
	}
}
