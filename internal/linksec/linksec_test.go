package linksec

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"

	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

func TestPairwiseSymmetricAndDistinct(t *testing.T) {
	s := NewPairwise(123)
	kab, ok := s.SharedKey(1, 2)
	if !ok {
		t.Fatal("pairwise scheme must always share a key")
	}
	kba, _ := s.SharedKey(2, 1)
	if kab != kba {
		t.Fatal("SharedKey not symmetric")
	}
	kac, _ := s.SharedKey(1, 3)
	if kab == kac {
		t.Fatal("distinct pairs share a key")
	}
	other := NewPairwise(456)
	k2, _ := other.SharedKey(1, 2)
	if kab == k2 {
		t.Fatal("different masters produced same key")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	s := NewPairwise(7)
	key, _ := s.SharedKey(4, 5)
	c := newCipher(key)
	if err := quick.Check(func(nonce uint32, value int64) bool {
		sealed := c.Seal(nonce, value)
		got, err := c.Open(sealed)
		return err == nil && got == value
	}, nil); err != nil {
		t.Fatal(err)
	}
	if c.key != key {
		t.Fatal("Key() mismatch")
	}
}

func TestSealIsNotIdentity(t *testing.T) {
	key, _ := NewPairwise(7).SharedKey(1, 2)
	sealed := newCipher(key).Seal(1, 42)
	var raw [8]byte
	raw[7] = 42
	if sealed.Cipher == raw {
		t.Fatal("ciphertext equals plaintext encoding")
	}
}

func TestSealNonceChangesCiphertext(t *testing.T) {
	key, _ := NewPairwise(7).SharedKey(1, 2)
	c := newCipher(key)
	a := c.Seal(1, 42)
	b := c.Seal(2, 42)
	if a.Cipher == b.Cipher {
		t.Fatal("same plaintext under different nonces produced same ciphertext")
	}
}

func TestOpenRejectsTamper(t *testing.T) {
	key, _ := NewPairwise(7).SharedKey(1, 2)
	c := newCipher(key)
	sealed := c.Seal(9, 1000)
	sealed.Cipher[0] ^= 1
	if _, err := c.Open(sealed); err != ErrAuth {
		t.Fatalf("tampered ciphertext: err = %v, want ErrAuth", err)
	}
	sealed = c.Seal(9, 1000)
	sealed.Tag ^= 1
	if _, err := c.Open(sealed); err != ErrAuth {
		t.Fatalf("tampered tag: err = %v, want ErrAuth", err)
	}
	sealed = c.Seal(9, 1000)
	sealed.Nonce++
	if _, err := c.Open(sealed); err != ErrAuth {
		t.Fatalf("tampered nonce: err = %v, want ErrAuth", err)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	s := NewPairwise(7)
	k1, _ := s.SharedKey(1, 2)
	k2, _ := s.SharedKey(1, 3)
	sealed := newCipher(k1).Seal(5, 77)
	if _, err := newCipher(k2).Open(sealed); err != ErrAuth {
		t.Fatalf("wrong key accepted: %v", err)
	}
}

func TestRandomPredistSymmetric(t *testing.T) {
	s, err := NewRandomPredist(50, 1000, 100, 3, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for a := topology.NodeID(0); a < 50; a++ {
		for b := a + 1; b < 50; b++ {
			kab, okAB := s.SharedKey(a, b)
			kba, okBA := s.SharedKey(b, a)
			if okAB != okBA || kab != kba {
				t.Fatalf("asymmetric shared key for %d,%d", a, b)
			}
		}
	}
}

func TestRandomPredistConnectRate(t *testing.T) {
	// With pool 1000, ring 100, analytic connect probability is
	// 1-C(900,100)/C(1000,100) ~= 0.99997; empirically almost all pairs
	// should share a key.
	s, _ := NewRandomPredist(80, 1000, 100, 3, rng.New(2))
	misses := 0
	pairs := 0
	for a := topology.NodeID(0); a < 80; a++ {
		for b := a + 1; b < 80; b++ {
			pairs++
			if _, ok := s.SharedKey(a, b); !ok {
				misses++
			}
		}
	}
	if float64(misses)/float64(pairs) > 0.01 {
		t.Fatalf("%d/%d pairs share no key", misses, pairs)
	}
	// Ring 30 puts the rate mid-range (analytic ~0.60), where the measured
	// rate can be held to the closed form: over 3,160 pairs one standard
	// deviation is about 0.009.
	s, _ = NewRandomPredist(80, 1000, 30, 3, rng.New(2))
	hits := 0
	for a := topology.NodeID(0); a < 80; a++ {
		for b := a + 1; b < 80; b++ {
			if _, ok := s.SharedKey(a, b); ok {
				hits++
			}
		}
	}
	got, want := float64(hits)/float64(pairs), ConnectProbability(1000, 30)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("connect rate %v, analytic %v", got, want)
	}
}

func TestRandomPredistSparseRings(t *testing.T) {
	// Tiny rings: some pairs must fail to share keys.
	s, _ := NewRandomPredist(200, 10000, 5, 3, rng.New(4))
	misses := 0
	for a := topology.NodeID(0); a < 200; a++ {
		for b := a + 1; b < 200; b++ {
			if _, ok := s.SharedKey(a, b); !ok {
				misses++
			}
		}
	}
	if misses == 0 {
		t.Fatal("expected some keyless pairs with tiny rings")
	}
}

func TestHoldsConsistentWithSharedKey(t *testing.T) {
	s, _ := NewRandomPredist(40, 200, 30, 9, rng.New(5))
	// If c holds the a-b key, then decrypting with c's knowledge is
	// possible; verify Holds matches a manual check via pool keys.
	for a := topology.NodeID(0); a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			kab, ok := s.SharedKey(a, b)
			if !ok {
				continue
			}
			for c := topology.NodeID(0); c < 40; c++ {
				if c == a || c == b {
					continue
				}
				holds := s.Holds(c, a, b)
				// Cross-check: c holds the key iff one of c's pool keys
				// equals kab.
				manual := false
				for _, id := range s.rings[c] {
					if s.poolKey(id) == kab {
						manual = true
						break
					}
				}
				if holds != manual {
					t.Fatalf("Holds(%d,%d,%d) = %v, manual %v", c, a, b, holds, manual)
				}
			}
		}
	}
}

func TestHoldsRate(t *testing.T) {
	// The fraction of third parties holding a given link key should be
	// near ring/pool = 0.1.
	s, _ := NewRandomPredist(120, 500, 50, 11, rng.New(6))
	holds, total := 0, 0
	for a := topology.NodeID(0); a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			if _, ok := s.SharedKey(a, b); !ok {
				continue
			}
			for c := topology.NodeID(40); c < 120; c++ {
				total++
				if s.Holds(c, a, b) {
					holds++
				}
			}
		}
	}
	got := float64(holds) / float64(total)
	want := ThirdPartyDecryptProbability(500, 50)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("third-party hold rate %v, analytic %v", got, want)
	}
}

func TestConnectProbability(t *testing.T) {
	// Eschenauer-Gligor's classic example: P=10000, m=75 gives ~0.5
	// connect probability (their paper reports p=0.5 for m~=75).
	p := ConnectProbability(10000, 75)
	if p < 0.4 || p > 0.6 {
		t.Fatalf("ConnectProbability(10000,75) = %v", p)
	}
	if ConnectProbability(100, 60) != 1 {
		t.Fatal("overlapping rings must connect with probability 1")
	}
	if p := ConnectProbability(1000, 1); p > 0.002 {
		t.Fatalf("singleton rings connect too often: %v", p)
	}
}

func TestQCompositeSymmetricAndGated(t *testing.T) {
	s, err := NewQComposite(60, 500, 60, 2, 7, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	connected, blocked := 0, 0
	for a := topology.NodeID(0); a < 60; a++ {
		for b := a + 1; b < 60; b++ {
			kab, okAB := s.SharedKey(a, b)
			kba, okBA := s.SharedKey(b, a)
			if okAB != okBA || kab != kba {
				t.Fatalf("asymmetric q-composite key for %d,%d", a, b)
			}
			if okAB {
				connected++
				// q-composite requires at least q shared pool keys.
				if len(sharedIDs(s.inner.rings[a], s.inner.rings[b])) < 2 {
					t.Fatalf("key issued below q shared keys for %d,%d", a, b)
				}
			} else {
				blocked++
			}
		}
	}
	if connected == 0 {
		t.Fatal("no pair connected")
	}
}

func TestQCompositeStricterThanPlain(t *testing.T) {
	// Same rings, q=1 vs q=3: q=3 must connect a subset of pairs.
	r1 := rng.New(31)
	plain, err := NewQComposite(80, 1000, 60, 1, 9, r1)
	if err != nil {
		t.Fatal(err)
	}
	r2 := rng.New(31)
	strict, err := NewQComposite(80, 1000, 60, 3, 9, r2)
	if err != nil {
		t.Fatal(err)
	}
	plainOK, strictOK := 0, 0
	for a := topology.NodeID(0); a < 80; a++ {
		for b := a + 1; b < 80; b++ {
			if _, ok := plain.SharedKey(a, b); ok {
				plainOK++
			}
			if _, ok := strict.SharedKey(a, b); ok {
				strictOK++
				if _, ok := plain.SharedKey(a, b); !ok {
					t.Fatalf("q=3 connected %d,%d but q=1 did not", a, b)
				}
			}
		}
	}
	if strictOK >= plainOK {
		t.Fatalf("q=3 connected %d pairs, q=1 %d — not stricter", strictOK, plainOK)
	}
}

func TestQCompositeHoldsHarder(t *testing.T) {
	// The fraction of third parties able to decrypt a q=2 link should be
	// well below the plain (q=1) scheme's m/P.
	s, err := NewQComposite(150, 500, 50, 2, 11, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	holds, total := 0, 0
	for a := topology.NodeID(0); a < 50; a++ {
		for b := a + 1; b < 50; b++ {
			if _, ok := s.SharedKey(a, b); !ok {
				continue
			}
			for c := topology.NodeID(50); c < 150; c++ {
				total++
				if s.Holds(c, a, b) {
					holds++
				}
			}
		}
	}
	if total == 0 {
		t.Skip("no connected pairs")
	}
	frac := float64(holds) / float64(total)
	plain := ThirdPartyDecryptProbability(500, 50) // 0.1
	if frac >= plain/2 {
		t.Fatalf("q-composite hold rate %v not well below plain %v", frac, plain)
	}
}

func TestQCompositeRoundTripWithSeal(t *testing.T) {
	s, err := NewQComposite(20, 100, 40, 2, 3, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	for a := topology.NodeID(0); a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			key, ok := s.SharedKey(a, b)
			if !ok {
				continue
			}
			c := newCipher(key)
			got, err := c.Open(c.Seal(5, 1234))
			if err != nil || got != 1234 {
				t.Fatalf("seal/open under q-composite key failed: %v %d", err, got)
			}
			return
		}
	}
	t.Skip("no connected pair")
}

func TestQCompositeValidation(t *testing.T) {
	if _, err := NewQComposite(10, 100, 10, 0, 1, rng.New(1)); err == nil {
		t.Fatal("q=0 accepted")
	}
	if _, err := NewQComposite(10, 0, 10, 1, 1, rng.New(1)); err == nil {
		t.Fatal("bad pool accepted")
	}
}

func TestNewRandomPredistValidation(t *testing.T) {
	if _, err := NewRandomPredist(10, 0, 1, 1, rng.New(1)); err == nil {
		t.Fatal("zero pool accepted")
	}
	if _, err := NewRandomPredist(10, 5, 6, 1, rng.New(1)); err == nil {
		t.Fatal("ring larger than pool accepted")
	}
}

// BenchmarkSealOpen measures a seal+open cycle on a fresh Cipher per op,
// the cost a caller pays without a CipherCache.
func BenchmarkSealOpen(b *testing.B) {
	key, _ := NewPairwise(7).SharedKey(1, 2)
	for i := 0; i < b.N; i++ {
		c := newCipher(key)
		s := c.Seal(uint32(i), int64(i))
		if _, err := c.Open(s); err != nil {
			b.Fatal(err)
		}
	}
}

// newCipher returns a cipher bound to key, the way CipherCache binds each
// link's cipher.
func newCipher(key Key) *Cipher {
	c := &Cipher{}
	c.rekey(key)
	return c
}

// newCache is NewCipherCache without the ignored Suite stub argument.
func newCache(scheme Scheme) *CipherCache { return NewCipherCache(scheme, SuiteAESCTR) }

// refSeal is an uncached reference for Cipher.Seal, written straight from
// the construction with crypto/aes and no state shared with the package:
// EM_K(x) = K ⊕ AES_π(x ⊕ K), π being AES-128 under the public key
// "iPDA-EM-fixed-pi". The keystream for nonce is half of the CTR block
// EM_K("iPDA-CTR" ‖ uint64(nonce>>1)) — the first 8 bytes for an even
// nonce, the last 8 for an odd one — and the tag is the first 4 bytes of
// EM_K("iTAG" ‖ uint32(nonce) ‖ ciphertext).
func refSeal(key Key, nonce uint32, value int64) Sealed {
	pi, err := aes.NewCipher([]byte("iPDA-EM-fixed-pi"))
	if err != nil {
		panic(err)
	}
	em := func(x [16]byte) [16]byte {
		for i := range x {
			x[i] ^= key[i]
		}
		var y [16]byte
		pi.Encrypt(y[:], x[:])
		for i := range y {
			y[i] ^= key[i]
		}
		return y
	}
	var ctr [16]byte
	copy(ctr[:8], "iPDA-CTR")
	binary.BigEndian.PutUint64(ctr[8:], uint64(nonce>>1))
	block := em(ctr)
	ks := block[:8]
	if nonce&1 == 1 {
		ks = block[8:]
	}
	out := Sealed{Nonce: nonce}
	binary.BigEndian.PutUint64(out.Cipher[:], uint64(value))
	for i := range out.Cipher {
		out.Cipher[i] ^= ks[i]
	}
	var in [16]byte
	copy(in[:4], "iTAG")
	binary.BigEndian.PutUint32(in[4:8], nonce)
	copy(in[8:], out.Cipher[:])
	tag := em(in)
	out.Tag = binary.BigEndian.Uint32(tag[:4])
	return out
}

// wireOf is the 16-byte wire form of s: the ciphertext, then nonce and tag
// big-endian, the field order a KindSlice body carries them in.
func wireOf(s Sealed) []byte {
	b := append([]byte(nil), s.Cipher[:]...)
	b = binary.BigEndian.AppendUint32(b, s.Nonce)
	return binary.BigEndian.AppendUint32(b, s.Tag)
}

// TestCipherMatchesReference pins the one cipher to refSeal. Seal runs on
// one long-lived Cipher rekeyed to each generated key, SealBatch on one
// CipherCache, so cached keystream blocks are exercised too: the fixed nonce 0x1234 recurs under every key, so a block cached
// under an earlier key would show. Every nonce is tried in all four
// combinations of its CTR-half bit (bit 0) and direction bit (bit 7).
func TestCipherMatchesReference(t *testing.T) {
	scheme := NewPairwise(29)
	linkKey, _ := scheme.SharedKey(3, 8)
	cc := newCache(scheme)
	c := newCipher(Key{})
	if err := quick.Check(func(key Key, nonce uint32, value int64) bool {
		c.rekey(key)
		var ns []uint32
		for _, b := range []uint32{nonce, 0x1234} {
			ns = append(ns, b&^0x81, b&^0x81|1, b&^0x81|0x80, b|0x81)
		}
		for _, n := range ns {
			want := refSeal(key, n, value)
			if got := c.Seal(n, value); got != want {
				t.Logf("Seal(%#x, %d) = %+v, reference %+v", n, value, got, want)
				return false
			}
			reqs := []SealReq{{Src: 3, Dst: 8, Nonce: n, Value: value}, {Src: 8, Dst: 3, Nonce: n ^ 1, Value: ^value}}
			cc.SealBatch(reqs)
			for _, r := range reqs {
				if want := refSeal(linkKey, r.Nonce, r.Value); !r.OK || r.Sealed != want {
					t.Logf("SealBatch(%#x, %d) = %+v, reference %+v", r.Nonce, r.Value, r.Sealed, want)
					return false
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCipherKnownAnswers pins three seals byte for byte, so the cipher's
// output cannot drift unnoticed — no experiment table reads ciphertext.
func TestCipherKnownAnswers(t *testing.T) {
	hexKey := func(s string) Key {
		var k Key
		if _, err := hex.Decode(k[:], []byte(s)); err != nil {
			t.Fatal(err)
		}
		return k
	}
	for _, v := range []struct {
		key    string
		nonce  uint32
		value  int64
		cipher string
		tag    uint32
	}{
		{"000102030405060708090a0b0c0d0e0f", 0x00001234, -271828, "e2982a75f2c7e3e8", 0x567219f4},
		{"31ad3a79b023c6c13bbd2b2152c706ce", 0x00010081, 42, "0e70125e8dc10ec5", 0x33aee628},
		{"ffffffffffffffffffffffffffffffff", 0xffffffff, math.MinInt64, "d38b605853f38964", 0x798e3cae},
	} {
		got := newCipher(hexKey(v.key)).Seal(v.nonce, v.value)
		if hex.EncodeToString(got.Cipher[:]) != v.cipher || got.Tag != v.tag || got.Nonce != v.nonce {
			t.Errorf("Seal(key %s, nonce %#x, %d) = cipher %x tag %#x, want %s %#x", v.key, v.nonce, v.value, got.Cipher, got.Tag, v.cipher, v.tag)
		}
		if want := refSeal(hexKey(v.key), v.nonce, v.value); got != want {
			t.Errorf("known answer for key %s disagrees with refSeal: %+v vs %+v", v.key, got, want)
		}
	}
	if k, _ := NewPairwise(7).SharedKey(4, 5); k != hexKey("31ad3a79b023c6c13bbd2b2152c706ce") {
		t.Errorf("pairwise key derivation drifted: %x", k)
	}
}

// noKeyScheme shares a key only between even-numbered nodes.
type noKeyScheme struct{ inner Scheme }

func (s noKeyScheme) SharedKey(a, b topology.NodeID) (Key, bool) {
	if a%2 != 0 || b%2 != 0 {
		return Key{}, false
	}
	return s.inner.SharedKey(a, b)
}

func TestCipherCache(t *testing.T) {
	cc := newCache(noKeyScheme{NewPairwise(5)})
	c1, ok := cc.Link(2, 4)
	if !ok || c1 == nil {
		t.Fatal("keyed pair got no cipher")
	}
	c2, ok := cc.Link(4, 2)
	if !ok || c2 != c1 {
		t.Fatal("orientations must share one cipher instance")
	}
	if c3, _ := cc.Link(2, 4); c3 != c1 {
		t.Fatal("repeat lookup rebuilt the cipher")
	}
	if _, ok := cc.Link(1, 2); ok {
		t.Fatal("keyless pair reported a cipher")
	}
	if _, ok := cc.Link(1, 2); ok {
		t.Fatal("memoized keyless pair reported a cipher")
	}
	want, _ := NewPairwise(5).SharedKey(2, 4)
	if c1.key != want {
		t.Fatal("cached cipher holds wrong key")
	}
}

// countingBlock wraps a cipher.Block and counts Encrypt calls, so tests
// can observe exactly when a keystream block was recomputed vs served from
// the cache.
type countingBlock struct {
	cipher.Block
	n *int
}

func (b countingBlock) Encrypt(dst, src []byte) {
	*b.n++
	b.Block.Encrypt(dst, src)
}

func TestRoundTripAndRejectTampering(t *testing.T) {
	// Every value must round-trip, and any single-field tamper must fail
	// authentication.
	key, _ := NewPairwise(21).SharedKey(3, 8)
	c := newCipher(key)
	if err := quick.Check(func(nonce uint32, value int64) bool {
		s := c.Seal(nonce, value)
		if v, err := c.Open(s); err != nil || v != value {
			return false
		}
		bad := s
		bad.Cipher[3] ^= 1
		if _, err := c.Open(bad); err != ErrAuth {
			return false
		}
		bad = s
		bad.Nonce ^= 4
		if _, err := c.Open(bad); err != ErrAuth {
			return false
		}
		bad = s
		bad.Tag ^= 0x8000
		if _, err := c.Open(bad); err != ErrAuth {
			return false
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpenReusesSealKeystreamBlock(t *testing.T) {
	// A Seal immediately followed by the matching Open (the shared-cache
	// common case, and the ARQ retransmit pattern) must not re-encrypt the
	// CTR block: only the tag block costs an AES call.
	key, _ := NewPairwise(13).SharedKey(1, 2)
	c := newCipher(key)
	var n int
	c.block = countingBlock{c.block, &n}
	s := c.Seal(0x1234, -99)
	if n != 2 { // one CTR block + one tag block
		t.Fatalf("Seal cost %d AES calls, want 2", n)
	}
	n = 0
	if v, err := c.Open(s); err != nil || v != -99 {
		t.Fatalf("Open = %d, %v", v, err)
	}
	if n != 1 { // tag only; keystream served from the cache
		t.Fatalf("Open cost %d AES calls, want 1 (cached keystream)", n)
	}
	// The paired nonce (same CTR block, other half) is also free.
	n = 0
	c.Seal(0x1235, 7)
	if n != 1 {
		t.Fatalf("paired-nonce Seal cost %d AES calls, want 1", n)
	}
}

func TestSealBatchMatchesSeal(t *testing.T) {
	// One subtest, named for the link cipher (AES-CTR).
	t.Run("aes", func(t *testing.T) {
		scheme := noKeyScheme{NewPairwise(31)}
		cc := newCache(scheme)
		ref := newCache(scheme)
		var reqs []SealReq
		for i := 0; i < 40; i++ {
			reqs = append(reqs, SealReq{
				Src:   topology.NodeID(i % 5 * 2), // even = keyed
				Dst:   topology.NodeID(i%3*2 + 6),
				Nonce: uint32(i),
				Value: int64(i) * 1001,
			})
		}
		// A keyless pair must come back OK=false, not crash.
		reqs = append(reqs, SealReq{Src: 1, Dst: 2, Nonce: 7, Value: 7})
		cc.SealBatch(reqs)
		opens := make([]OpenReq, 0, len(reqs))
		for i := range reqs {
			r := &reqs[i]
			if r.Src == r.Dst {
				continue
			}
			c, ok := ref.Link(r.Src, r.Dst)
			if !ok {
				if r.OK {
					t.Fatalf("req %d: sealed without a key", i)
				}
				continue
			}
			if !r.OK {
				t.Fatalf("req %d: OK=false for keyed pair", i)
			}
			if want := c.Seal(r.Nonce, r.Value); r.Sealed != want {
				t.Fatalf("req %d: batch sealed %+v, want %+v", i, r.Sealed, want)
			}
			opens = append(opens, OpenReq{Src: r.Src, Dst: r.Dst, Sealed: r.Sealed})
		}
		opens = append(opens, OpenReq{Src: 1, Dst: 2})
		cc.OpenBatch(opens)
		for i := range opens {
			r := &opens[i]
			if r.Src == 1 && r.Dst == 2 {
				if r.Err != ErrNoKey {
					t.Fatalf("keyless open err = %v, want ErrNoKey", r.Err)
				}
				continue
			}
			if r.Err != nil {
				t.Fatalf("open %d: %v", i, r.Err)
			}
		}
	})
}

func TestCipherCacheResetRetainsSchedules(t *testing.T) {
	// Arena reuse: Reset to the same scheme must not rebuild AES
	// round-key schedules (or anything else) — steady-state re-deployment
	// performs zero allocations and keeps the same cipher instances.
	scheme := NewPairwise(77)
	cc := newCache(scheme)
	c1, _ := cc.Link(1, 2)
	b1 := c1.block
	s1 := c1.Seal(9, 42)
	allocs := testing.AllocsPerRun(100, func() {
		cc.Reset(scheme)
		if c, ok := cc.Link(1, 2); !ok || c != c1 {
			t.Fatal("Reset dropped the pooled cipher")
		}
		if _, ok := cc.Link(2, 3); !ok {
			t.Fatal("second link missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+Link allocated %v per run, want 0", allocs)
	}
	if c1.block != b1 {
		t.Fatal("Reset rebuilt the AES round-key schedule for an unchanged key")
	}
	if got := c1.Seal(9, 42); got != s1 {
		t.Fatalf("post-Reset seal %+v, want %+v", got, s1)
	}
	// A scheme change must rebind: same instance, new behavior.
	cc.Reset(NewPairwise(78))
	c2, _ := cc.Link(1, 2)
	if c2 != c1 {
		t.Fatal("rekey should reuse the resident cipher instance")
	}
	want, _ := NewPairwise(78).SharedKey(1, 2)
	if c2.key != want {
		t.Fatal("stale key after scheme change")
	}
	if got := c2.Seal(9, 42); got == s1 {
		t.Fatal("seal unchanged after rekey")
	}
}

// BenchmarkPRFKeystream measures one seal+open cycle on a reusable Cipher
// (incrementing nonces, so each pair of seals shares one CTR block and
// each open hits the cache). History: 933.4 ns/op (SHA-256-PRF package
// Seal/Open), 408.0 ns/op (reusable SHA-256 Cipher), ~88 ns/op (AES-CTR).
func BenchmarkPRFKeystream(b *testing.B) {
	var key Key
	for i := range key {
		key[i] = byte(i)
	}
	c := newCipher(key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed := c.Seal(uint32(i), int64(i)*3)
		if _, err := c.Open(sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealBatch measures the per-seal cost of the batch API on a
// warmed cache: 8 slices across 4 links per op, the shape of one node's
// Phase II round. ns/op is the whole batch; divide by 8 for per-seal.
func BenchmarkSealBatch(b *testing.B) {
	cc := newCache(NewPairwise(17))
	reqs := make([]SealReq, 8)
	for i := range reqs {
		reqs[i] = SealReq{
			Src:   topology.NodeID(1 + i/4),
			Dst:   topology.NodeID(3 + i%2),
			Nonce: uint32(i),
			Value: int64(i) * 17,
		}
	}
	cc.SealBatch(reqs) // warm link entries and key schedules
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			reqs[j].Nonce = uint32(i*8 + j)
		}
		cc.SealBatch(reqs)
	}
}
