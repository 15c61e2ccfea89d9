// Package linksec implements the link-level encryption iPDA's slicing phase
// requires (Section III-C) and the key-management schemes it can be built
// on.
//
// The paper deliberately leaves key management pluggable: "One of the
// merits of iPDA scheme is that it can be built on top of any key
// management scheme." We provide the two families the paper discusses:
//
//   - Pairwise keys: every pair of neighbors derives a unique key from a
//     master secret. Only compromising an endpoint exposes a link.
//   - Random key predistribution (Eschenauer–Gligor, ref. [13] of the
//     paper): each node holds a random ring of key IDs from a global pool;
//     neighbors communicate under a common ring key. A third node holding
//     the same pool key can decrypt the link — the first privacy-violation
//     path of Section IV-A.3.
//
// Payload encryption is an authenticated 8-byte stream cipher with two
// interchangeable keystream suites (see Suite): the default batched
// AES-CTR engine — a single-key Even–Mansour cipher over one shared AES
// permutation, so crypto/aes uses hardware AES instructions where present
// while rekeying a link costs only a 16-byte key copy — and the original
// SHA-256-PRF construction kept as a byte-exact compat mode. Either way
// the model is the same and honest: confidentiality and integrity of a
// 64-bit additive share per frame.
package linksec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// KeySize is the size of derived link keys in bytes.
const KeySize = 16

// Key is a symmetric link key.
type Key [KeySize]byte

// Suite selects the keystream/tag primitive a Cipher seals with. The wire
// format (Sealed, SealedSize) is suite-independent; only the ciphertext
// and tag bytes differ. Protocol results never depend on those bytes —
// frame sizes are fixed and authentication failures occur only under
// active tampering — so switching suites re-blesses no experiment table.
type Suite uint8

const (
	// SuiteAESCTR is the default hot path: AES-CTR keystream (one block
	// encrypts the nonce pair 2k, 2k+1) with a single-block AES-PRF tag,
	// both served from a per-link keystream-block cache. The per-link
	// cipher is single-key Even–Mansour over one process-wide AES
	// permutation, EM_K(x) = K ⊕ AES_π(x ⊕ K) with π fixed and public —
	// so every link shares the one expanded round-key schedule and
	// rekeying is a plain key copy, which is what keeps arena-pooled
	// trials with fresh key material allocation-free.
	SuiteAESCTR Suite = iota
	// SuiteSHA256 is the original SHA-256-PRF construction, kept as a
	// compat mode byte-identical to the package-level Seal/Open.
	SuiteSHA256
)

// String returns the flag spelling of the suite.
func (s Suite) String() string {
	switch s {
	case SuiteAESCTR:
		return "aes"
	case SuiteSHA256:
		return "sha256"
	default:
		return fmt.Sprintf("Suite(%d)", uint8(s))
	}
}

// ParseSuite parses a -cipher flag value.
func ParseSuite(name string) (Suite, error) {
	switch name {
	case "aes", "aes-ctr", "aesctr":
		return SuiteAESCTR, nil
	case "sha256", "sha-256":
		return SuiteSHA256, nil
	default:
		return 0, fmt.Errorf("linksec: unknown cipher suite %q (want aes or sha256)", name)
	}
}

// Scheme is a key-management scheme: it answers whether two nodes share a
// key and what it is.
type Scheme interface {
	// SharedKey returns the key nodes a and b use on their link, or
	// ok=false if the scheme gives them no common key (in which case the
	// pair cannot exchange encrypted slices).
	SharedKey(a, b topology.NodeID) (key Key, ok bool)
}

// KeyChecker is an optional Scheme refinement: HasKey answers whether a
// pair shares a key without deriving it. Target selection probes every
// neighbor pair per trial but seals on only a few links per node, so a
// scheme that can answer the existence question from its combinatorial
// structure alone (all three shipped schemes can) keeps key derivation
// off the probe path entirely.
type KeyChecker interface {
	HasKey(a, b topology.NodeID) bool
}

// prf derives 32 pseudo-random bytes from the labeled inputs.
func prf(label string, parts ...uint64) [32]byte {
	h := sha256.New()
	h.Write([]byte(label))
	var buf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(buf[:], p)
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Pairwise is a pairwise master-secret scheme: every unordered node pair
// derives a unique key. It is stateless and safe for concurrent use.
type Pairwise struct {
	master uint64
}

// NewPairwise creates a pairwise scheme from a master secret.
func NewPairwise(master uint64) *Pairwise { return &Pairwise{master: master} }

// HasKey implements KeyChecker: every pair shares a key, no derivation
// needed.
func (p *Pairwise) HasKey(a, b topology.NodeID) bool { return true }

// SharedKey implements Scheme. Every pair shares a key.
func (p *Pairwise) SharedKey(a, b topology.NodeID) (Key, bool) {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	d := prf("pairwise", p.master, uint64(uint32(lo)), uint64(uint32(hi)))
	var k Key
	copy(k[:], d[:KeySize])
	return k, true
}

// EraScheme derives era-qualified link keys over an inner scheme. The
// protocol engines carry only the low 16 bits of their cumulative round
// counter in the wire nonce, so a long-running network would repeat
// (key, nonce) pairs every 65,536 rounds — keystream reuse under the AES
// suite. Instead of widening the wire format, the engines rotate the key
// era whenever the counter crosses a 16-bit boundary: every link key is
// re-derived from (inner key, era), which re-partitions the nonce space
// by construction. Which pairs share a key is decided entirely by the
// inner scheme, so target selection and rng draw order never depend on
// the era.
type EraScheme struct {
	Inner Scheme
	Era   uint64
}

// EraKeys returns the scheme engines seal with during key era `era`:
// era 0 is the inner scheme unchanged (the first 65,536 rounds seal
// exactly as a short-lived deployment always has), later eras wrap it.
func EraKeys(inner Scheme, era uint64) Scheme {
	if era == 0 {
		return inner
	}
	return EraScheme{Inner: inner, Era: era}
}

// HasKey implements KeyChecker by delegation: era rotation never changes
// which pairs share a key.
func (s EraScheme) HasKey(a, b topology.NodeID) bool {
	if kc, ok := s.Inner.(KeyChecker); ok {
		return kc.HasKey(a, b)
	}
	_, ok := s.Inner.SharedKey(a, b)
	return ok
}

// SharedKey implements Scheme: the inner key, re-derived under the era.
func (s EraScheme) SharedKey(a, b topology.NodeID) (Key, bool) {
	k, ok := s.Inner.SharedKey(a, b)
	if !ok {
		return Key{}, false
	}
	d := prf("era", s.Era, binary.BigEndian.Uint64(k[:8]), binary.BigEndian.Uint64(k[8:]))
	var out Key
	copy(out[:], d[:KeySize])
	return out, true
}

// RandomPredist is the Eschenauer–Gligor random key predistribution
// scheme: a pool of PoolSize keys, RingSize random distinct key IDs per
// node. Two nodes use the smallest common key ID.
type RandomPredist struct {
	master   uint64
	poolSize int
	rings    [][]int32 // sorted ring of key IDs per node
}

// NewRandomPredist draws a key ring for each of n nodes. RingSize must not
// exceed poolSize.
func NewRandomPredist(n, poolSize, ringSize int, master uint64, r *rng.Stream) (*RandomPredist, error) {
	if poolSize <= 0 || ringSize <= 0 || ringSize > poolSize {
		return nil, fmt.Errorf("linksec: invalid pool/ring sizes %d/%d", poolSize, ringSize)
	}
	s := &RandomPredist{master: master, poolSize: poolSize, rings: make([][]int32, n)}
	for i := range s.rings {
		ids := r.Sample(poolSize, ringSize)
		ring := make([]int32, len(ids))
		for k, id := range ids {
			ring[k] = int32(id)
		}
		sortInt32(ring)
		s.rings[i] = ring
	}
	return s, nil
}

func sortInt32(xs []int32) {
	// Insertion sort: rings are small (tens of entries).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// commonKeyID returns the smallest key ID in both sorted rings, or -1.
func commonKeyID(a, b []int32) int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i]
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return -1
}

// HasKey implements KeyChecker: a ring intersection decides key
// existence without touching the key pool.
func (s *RandomPredist) HasKey(a, b topology.NodeID) bool {
	return commonKeyID(s.rings[a], s.rings[b]) >= 0
}

// SharedKey implements Scheme: ok is false when the rings do not intersect.
func (s *RandomPredist) SharedKey(a, b topology.NodeID) (Key, bool) {
	id := commonKeyID(s.rings[a], s.rings[b])
	if id < 0 {
		return Key{}, false
	}
	return s.poolKey(id), true
}

func (s *RandomPredist) poolKey(id int32) Key {
	d := prf("pool", s.master, uint64(uint32(id)))
	var k Key
	copy(k[:], d[:KeySize])
	return k
}

// Holds reports whether node c's ring contains the key a and b use — i.e.
// whether c can passively decrypt the a–b link, the first privacy
// violation path of Section IV-A.3.
func (s *RandomPredist) Holds(c, a, b topology.NodeID) bool {
	id := commonKeyID(s.rings[a], s.rings[b])
	if id < 0 {
		return false
	}
	ring := s.rings[c]
	for _, x := range ring {
		if x == id {
			return true
		}
		if x > id {
			return false
		}
	}
	return false
}

// ConnectProbability returns the analytic probability that two nodes share
// at least one key: 1 - C(P-m, m)/C(P, m), computed in log space.
func ConnectProbability(poolSize, ringSize int) float64 {
	if ringSize*2 > poolSize {
		return 1
	}
	// C(P-m,m)/C(P,m) = prod_{i=0}^{m-1} (P-m-i)/(P-i)
	p := 1.0
	for i := 0; i < ringSize; i++ {
		p *= float64(poolSize-ringSize-i) / float64(poolSize-i)
	}
	return 1 - p
}

// ThirdPartyDecryptProbability returns the analytic probability that a
// random third node holds one specific pool key: m/P. This is the per-link
// eavesdrop probability p_x induced by random key predistribution.
func ThirdPartyDecryptProbability(poolSize, ringSize int) float64 {
	return float64(ringSize) / float64(poolSize)
}

// QComposite is the q-composite variant of random key predistribution
// (Chan, Perrig, Song — the hardening of ref. [14] of the paper): two
// nodes derive a link key only when their rings share at least q pool
// keys, and the link key is a hash over ALL shared keys. An eavesdropper
// must hold every shared key to decrypt the link, which sharply reduces
// the per-link exposure p_x at a modest connectivity cost.
type QComposite struct {
	inner *RandomPredist
	q     int
}

// NewQComposite wraps a random-predistribution ring assignment with the
// q-composite rule. q must be at least 1.
func NewQComposite(n, poolSize, ringSize, q int, master uint64, r *rng.Stream) (*QComposite, error) {
	if q < 1 {
		return nil, fmt.Errorf("linksec: q must be >= 1, got %d", q)
	}
	inner, err := NewRandomPredist(n, poolSize, ringSize, master, r)
	if err != nil {
		return nil, err
	}
	return &QComposite{inner: inner, q: q}, nil
}

// countShared returns the number of pool-key IDs common to both sorted
// rings without materializing them.
func countShared(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// sharedIDs returns all pool-key IDs common to both sorted rings.
func sharedIDs(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// HasKey implements KeyChecker: the q-composite threshold is decided by
// counting ring overlap, with no key material derived.
func (s *QComposite) HasKey(a, b topology.NodeID) bool {
	return countShared(s.inner.rings[a], s.inner.rings[b]) >= s.q
}

// SharedKey implements Scheme: ok is false when fewer than q pool keys are
// shared; otherwise the link key hashes every shared key together.
func (s *QComposite) SharedKey(a, b topology.NodeID) (Key, bool) {
	ids := sharedIDs(s.inner.rings[a], s.inner.rings[b])
	if len(ids) < s.q {
		return Key{}, false
	}
	h := sha256.New()
	h.Write([]byte("qcomposite"))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], s.inner.master)
	h.Write(buf[:])
	for _, id := range ids {
		k := s.inner.poolKey(id)
		h.Write(k[:])
	}
	var k Key
	copy(k[:], h.Sum(nil)[:KeySize])
	return k, true
}

// Holds reports whether node c's ring contains EVERY pool key the a–b
// link key is built from — the q-composite passive-decryption condition.
func (s *QComposite) Holds(c, a, b topology.NodeID) bool {
	ids := sharedIDs(s.inner.rings[a], s.inner.rings[b])
	if len(ids) < s.q {
		return false
	}
	ring := s.inner.rings[c]
	for _, id := range ids {
		found := false
		for _, x := range ring {
			if x == id {
				found = true
				break
			}
			if x > id {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Sealed is an encrypted, authenticated 8-byte payload.
type Sealed struct {
	Cipher [8]byte
	Nonce  uint32
	Tag    uint32
}

// ErrAuth is returned when a sealed payload fails authentication.
var ErrAuth = errors.New("linksec: authentication failed")

// Seal encrypts an int64 additive share under key with the given nonce.
// Nonces must be unique per key; the protocol uses (round, sender, index).
func Seal(key Key, nonce uint32, value int64) Sealed {
	ks := prf("stream", binary.BigEndian.Uint64(key[:8]), binary.BigEndian.Uint64(key[8:]), uint64(nonce))
	var out Sealed
	out.Nonce = nonce
	binary.BigEndian.PutUint64(out.Cipher[:], uint64(value)^binary.BigEndian.Uint64(ks[:8]))
	out.Tag = tag(key, nonce, out.Cipher)
	return out
}

// Open decrypts and authenticates a sealed payload.
func Open(key Key, s Sealed) (int64, error) {
	if tag(key, s.Nonce, s.Cipher) != s.Tag {
		return 0, ErrAuth
	}
	ks := prf("stream", binary.BigEndian.Uint64(key[:8]), binary.BigEndian.Uint64(key[8:]), uint64(s.Nonce))
	return int64(binary.BigEndian.Uint64(s.Cipher[:]) ^ binary.BigEndian.Uint64(ks[:8])), nil
}

func tag(key Key, nonce uint32, cipher [8]byte) uint32 {
	d := prf("tag",
		binary.BigEndian.Uint64(key[:8]),
		binary.BigEndian.Uint64(key[8:]),
		uint64(nonce),
		binary.BigEndian.Uint64(cipher[:]))
	return binary.BigEndian.Uint32(d[:4])
}

// PRF labels, precomputed so the hot path writes constant byte slices.
var (
	streamLabel = []byte("stream")
	tagLabel    = []byte("tag")
)

// SealedSize is the wire length of one sealed share as produced by
// Cipher.EncryptTo: 8-byte ciphertext, 4-byte nonce, 4-byte tag.
const SealedSize = 16

// ErrShort is returned when a wire buffer is too small to hold a sealed
// share.
var ErrShort = errors.New("linksec: sealed payload truncated")

// ksSlots is the size of the per-Cipher direct-mapped keystream-block
// cache. Slice nonces are round<<8 | dir<<7 | idx, so a block counter
// ctr = nonce>>1 carries the direction bit at bit 6 and idx>>1 in its low
// bits; the slot map gives each direction its own half of the cache and
// covers idx 0..7 without conflict — the paper's operating points use
// idx 0..3. Rounds alias (the round bits are above the slot map), so a
// round's blocks evict the previous round's; what the cache serves is the
// repeats within a round — the second seal of a nonce pair, the Open
// matching a Seal, an ARQ-retransmitted slice. Collisions only cost a
// recompute.
// Kept small deliberately: arena-pooled sweeps hold one Cipher per link
// of every deployment, so cache bytes multiply by hundreds of thousands
// of instances.
const ksSlots = 8

func ksSlot(ctr uint32) int { return int((ctr>>6)&1)<<2 | int(ctr&3) }

// AES block-input domain labels, as big-endian words. The CTR input
// starts "iPDA-CTR" and the tag input starts "iTAG", so keystream and tag
// blocks can never collide.
const (
	aesCTRLabel uint64 = 0x695044412d435452 // "iPDA-CTR"
	aesTagLabel uint64 = 0x69544147         // "iTAG", shifted above the nonce
)

// emPerm is the fixed, public AES-128 permutation π of the Even–Mansour
// construction every SuiteAESCTR cipher seals with. One expanded round-key
// schedule serves the whole process; per-link secrecy comes entirely from
// the pre/post-whitening link key. The key bytes below are a published
// constant, not a secret.
var emPerm cipher.Block

func init() {
	b, err := aes.NewCipher([]byte("iPDA-EM-fixed-pi"))
	if err != nil {
		// Unreachable: the constant is a valid AES-128 key length.
		panic(fmt.Sprintf("linksec: aes.NewCipher: %v", err))
	}
	emPerm = b
}

// Cipher is a reusable sealing state bound to one link key and suite. It
// keeps its primitive state (Even–Mansour whitening words or SHA-256
// hasher), scratch buffers, and a keystream-block cache alive across calls, so
// steady-state sealing performs no allocation and a Seal immediately
// followed by the matching Open — the common case, since one shared
// CipherCache serves both endpoints of a simulated link — reuses the
// keystream block instead of recomputing it. In SHA-256 compat mode the
// output is byte-identical to the package-level Seal/Open. A Cipher is not
// safe for concurrent use; protocol instances hold one per link (see
// CipherCache).
type Cipher struct {
	key   Key
	suite Suite

	// AES-CTR state: the shared Even–Mansour permutation, the link key as
	// two whitening words, and the direct-mapped keystream-block cache
	// (two 8-byte words per block, keyed by ctr = nonce>>1; ksTag stores
	// ctr+1 so the zero value means empty). Fixed arrays keep the cache
	// off the heap.
	block        cipher.Block
	keyLo, keyHi uint64
	ksTag        [ksSlots]uint32
	ksLo         [ksSlots]uint64
	ksHi         [ksSlots]uint64
	bin          [aes.BlockSize]byte
	bout         [aes.BlockSize]byte

	// SHA-256 compat state, allocated on first SHA use so the default
	// suite — whose instances number one per link per pooled arena —
	// doesn't carry hasher state it never touches.
	sha *shaState
}

// shaState is the SuiteSHA256 half of a Cipher: the hasher, a one-entry
// keystream memo serving the Seal→Open pattern the AES cache handles
// structurally, and staging buffers — arrays passed to an interface
// method would escape to the heap each call, so the hot path stages
// words in the (already heap-resident) state instead.
type shaState struct {
	h         hash.Hash
	memoNonce uint32
	memoOK    bool
	memoKS    uint64
	word      [8]byte
	ct        [8]byte
	scratch   [sha256.Size]byte
}

// NewCipher creates a reusable cipher state for key under the suite.
func NewCipher(suite Suite, key Key) *Cipher {
	c := &Cipher{suite: suite, key: key}
	c.initSuite()
	return c
}

// initSuite builds the primitive state the current suite needs. Nothing
// here allocates in steady state: the AES suite binds the shared
// permutation and splits the key into whitening words, and the SHA suite
// reuses any hasher the cipher already owns.
func (c *Cipher) initSuite() {
	c.keyLo = binary.BigEndian.Uint64(c.key[:8])
	c.keyHi = binary.BigEndian.Uint64(c.key[8:])
	switch c.suite {
	case SuiteAESCTR:
		c.block = emPerm
	default:
		if c.sha == nil {
			c.sha = &shaState{h: sha256.New()}
		}
	}
}

// rekey rebinds the cipher to (suite, key): a pure state update — key
// copy, whitening-word split, keystream-cache invalidation — with no
// primitive construction, since the AES suite's round-key schedule is the
// shared permutation's. When suite and key are unchanged the cached
// keystream blocks survive too. This is what makes CipherCache reuse
// across arena-pooled trials free even when every trial derives fresh key
// material.
func (c *Cipher) rekey(suite Suite, key Key) {
	if c.suite == suite && c.key == key {
		if suite == SuiteAESCTR && c.block != nil {
			return
		}
		if suite != SuiteAESCTR && c.sha != nil {
			return
		}
	}
	c.suite = suite
	c.key = key
	if c.sha != nil {
		c.sha.memoOK = false
	}
	clear(c.ksTag[:])
	c.initSuite()
}

// Key returns the link key this cipher seals under.
func (c *Cipher) Key() Key { return c.key }

// Suite returns the suite this cipher seals with.
func (c *Cipher) Suite() Suite { return c.suite }

// writeU64 feeds one big-endian word to the hasher without allocating.
func (s *shaState) writeU64(v uint64) {
	binary.BigEndian.PutUint64(s.word[:], v)
	s.h.Write(s.word[:])
}

// aesBlock returns the two keystream words of block counter ctr, serving
// repeats — the second seal of a nonce pair, the Open matching a Seal, an
// ARQ-retransmitted slice — from the direct-mapped cache.
func (c *Cipher) aesBlock(ctr uint32) (lo, hi uint64) {
	s := ksSlot(ctr)
	if c.ksTag[s] == ctr+1 {
		return c.ksLo[s], c.ksHi[s]
	}
	binary.BigEndian.PutUint64(c.bin[:8], aesCTRLabel^c.keyLo)
	binary.BigEndian.PutUint64(c.bin[8:16], uint64(ctr)^c.keyHi)
	c.block.Encrypt(c.bout[:], c.bin[:])
	lo = binary.BigEndian.Uint64(c.bout[:8]) ^ c.keyLo
	hi = binary.BigEndian.Uint64(c.bout[8:]) ^ c.keyHi
	c.ksTag[s] = ctr + 1
	c.ksLo[s], c.ksHi[s] = lo, hi
	return lo, hi
}

// keystream returns the 8 keystream bytes for nonce as a uint64.
func (c *Cipher) keystream(nonce uint32) uint64 {
	if c.suite == SuiteAESCTR {
		lo, hi := c.aesBlock(nonce >> 1)
		if nonce&1 == 1 {
			return hi
		}
		return lo
	}
	sh := c.sha
	if sh.memoOK && sh.memoNonce == nonce {
		return sh.memoKS
	}
	sh.h.Reset()
	sh.h.Write(streamLabel)
	sh.h.Write(c.key[:])
	sh.writeU64(uint64(nonce))
	ks := binary.BigEndian.Uint64(sh.h.Sum(sh.scratch[:0])[:8])
	sh.memoNonce, sh.memoOK, sh.memoKS = nonce, true, ks
	return ks
}

// tagOf computes the truncated authentication tag over a ciphertext.
func (c *Cipher) tagOf(nonce uint32, cipher [8]byte) uint32 {
	if c.suite == SuiteAESCTR {
		binary.BigEndian.PutUint64(c.bin[:8], (aesTagLabel<<32|uint64(nonce))^c.keyLo)
		binary.BigEndian.PutUint64(c.bin[8:16], binary.BigEndian.Uint64(cipher[:])^c.keyHi)
		c.block.Encrypt(c.bout[:], c.bin[:])
		return uint32((binary.BigEndian.Uint64(c.bout[:8]) ^ c.keyLo) >> 32)
	}
	sh := c.sha
	sh.h.Reset()
	sh.h.Write(tagLabel)
	sh.h.Write(c.key[:])
	sh.writeU64(uint64(nonce))
	sh.ct = cipher
	sh.h.Write(sh.ct[:])
	return binary.BigEndian.Uint32(sh.h.Sum(sh.scratch[:0])[:4])
}

// Seal encrypts an int64 additive share, exactly as the package-level Seal
// but without per-call hasher construction.
func (c *Cipher) Seal(nonce uint32, value int64) Sealed {
	var out Sealed
	out.Nonce = nonce
	binary.BigEndian.PutUint64(out.Cipher[:], uint64(value)^c.keystream(nonce))
	out.Tag = c.tagOf(nonce, out.Cipher)
	return out
}

// Open decrypts and authenticates a sealed payload.
func (c *Cipher) Open(s Sealed) (int64, error) {
	if c.tagOf(s.Nonce, s.Cipher) != s.Tag {
		return 0, ErrAuth
	}
	return int64(binary.BigEndian.Uint64(s.Cipher[:]) ^ c.keystream(s.Nonce)), nil
}

// EncryptTo seals value under nonce and appends the SealedSize-byte wire
// encoding to dst, returning the extended slice. Steady-state calls with
// sufficient capacity in dst perform no allocation.
func (c *Cipher) EncryptTo(dst []byte, nonce uint32, value int64) []byte {
	ct := uint64(value) ^ c.keystream(nonce)
	var cipher [8]byte
	binary.BigEndian.PutUint64(cipher[:], ct)
	dst = append(dst, cipher[:]...)
	dst = binary.BigEndian.AppendUint32(dst, nonce)
	return binary.BigEndian.AppendUint32(dst, c.tagOf(nonce, cipher))
}

// DecryptTo authenticates and decrypts the sealed share at the front of
// src (the wire form EncryptTo appends) without allocating.
func (c *Cipher) DecryptTo(src []byte) (int64, error) {
	if len(src) < SealedSize {
		return 0, ErrShort
	}
	var s Sealed
	copy(s.Cipher[:], src[:8])
	s.Nonce = binary.BigEndian.Uint32(src[8:12])
	s.Tag = binary.BigEndian.Uint32(src[12:16])
	return c.Open(s)
}

// linkEntry is one CipherCache slot, carrying two generation stamps
// because the cache answers two questions of different cost. okGen
// validates the existence answer ok (HasKey's question, answerable
// without key material); keyGen validates that the cipher c is bound to
// the link's current key (Link's question, requiring derivation).
// keyGen implies okGen: binding a cipher validates both.
type linkEntry struct {
	c      *Cipher
	ok     bool
	okGen  uint64
	keyGen uint64
}

// CipherCache memoizes one reusable Cipher per link over a key-management
// Scheme, so per-round sealing reuses primitive state (hashers, keystream
// blocks, scratch buffers) instead of re-deriving keys and rebuilding
// primitives per share. Negative lookups (pairs the scheme gives no key)
// are memoized too, and HasKey memoizes the existence answer alone —
// cipher construction and key derivation happen only on links that
// actually seal. Entries are generation-stamped: Reset bumps the
// generation instead of clearing the map, and a stale hit re-validates in
// place via Cipher.rekey — when the new scheme derives the same key for
// the link, the cached keystream blocks survive untouched, and even a
// fresh key costs only a copy (the AES suite's round-key schedule is
// process-wide). Entries untouched for a full generation — links of a
// previous deployment's topology, in an arena cache — retire their
// ciphers to a free pool the next deployment draws from, so a long-lived
// cache's footprint tracks one deployment's working set, not the union
// of all of them. Not safe for concurrent use.
type CipherCache struct {
	scheme  Scheme
	checker KeyChecker // scheme's KeyChecker refinement, or nil
	suite   Suite
	gen     uint64
	links   map[uint64]linkEntry
	free    []*Cipher // ciphers retired from swept or negative entries
	// New ciphers are carved from slabs rather than allocated one by one:
	// a deployment binds thousands of links at once, and slab allocation
	// turns those into a handful of heap objects the collector can sweep
	// cheaply. Ciphers never die individually — they retire to free and
	// come back — so slab storage is never stranded.
	slab     []Cipher
	slabUsed int
}

// cipherSlabSize is the number of Cipher structs carved per slab — about
// the link count of a mid-sized deployment's node neighborhood working
// set, small enough that a tiny cache wastes little.
const cipherSlabSize = 256

// NewCipherCache creates an empty cache over scheme sealing with suite.
func NewCipherCache(scheme Scheme, suite Suite) *CipherCache {
	cc := &CipherCache{gen: 1, links: make(map[uint64]linkEntry)}
	cc.bind(scheme, suite)
	return cc
}

// Suite returns the suite ciphers in this cache seal with.
func (cc *CipherCache) Suite() Suite { return cc.suite }

// Reset rebinds the cache to a new scheme and suite and invalidates every
// entry by bumping the generation — entries the previous deployment used
// stay in the map, and the next Link hit on such a stale entry re-derives
// the link key and rekeys the resident cipher in place (retaining every
// cached keystream block when suite and key are unchanged). Entries NOT
// touched since the previous Reset belong to a topology two deployments
// gone — random deployments barely overlap in link sets — so their
// ciphers retire to the free pool and their map slots are deleted: the
// next deployment repopulates from recycled instances instead of
// allocating. A Cipher's observable behavior is a pure function of its
// current (suite, key) — cached keystream blocks are invalidated on any
// change — so which pooled cipher serves which link never shows in the
// output.
func (cc *CipherCache) Reset(scheme Scheme, suite Suite) {
	cc.bind(scheme, suite)
	for id, e := range cc.links {
		if e.okGen < cc.gen && e.keyGen < cc.gen {
			if e.c != nil {
				cc.free = append(cc.free, e.c)
			}
			delete(cc.links, id)
		}
	}
	cc.gen++
}

// bind points the cache at scheme and suite.
func (cc *CipherCache) bind(scheme Scheme, suite Suite) {
	cc.scheme = scheme
	cc.checker, _ = scheme.(KeyChecker)
	cc.suite = suite
}

// linkID normalizes an unordered node pair to a map key.
func linkID(a, b topology.NodeID) uint64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return uint64(uint32(lo))<<32 | uint64(uint32(hi))
}

// HasKey reports whether the scheme gives the a–b pair a key, deriving
// no key material when the scheme is a KeyChecker. This is the query
// target selection wants: it probes every neighbor pair but commits to
// few, so existence must not cost a cipher binding. A KeyChecker scheme
// is asked first, before the link map is read: its contract makes its
// answer equal to any memoized one, and a combinatorial existence check
// is cheaper than a map lookup. Its answers are deliberately NOT
// memoized either — each pair is probed about once per deployment, and
// memoizing would grow the map by every probed pair, so the map stays
// sized by links that actually seal. Only a scheme without the
// refinement reads the memo, and only its expensive SharedKey fallback
// earns a map entry.
func (cc *CipherCache) HasKey(a, b topology.NodeID) bool {
	if cc.checker != nil {
		return cc.checker.HasKey(a, b)
	}
	id := linkID(a, b)
	e, seen := cc.links[id]
	if seen && (e.okGen == cc.gen || e.keyGen == cc.gen) {
		return e.ok
	}
	_, ok := cc.scheme.SharedKey(a, b)
	e.ok = ok
	e.okGen = cc.gen
	cc.links[id] = e
	return ok
}

// Link returns the cipher for the a–b link, or ok=false when the scheme
// gives the pair no key. Both orientations share one cipher — which is
// what lets a receiver's Open reuse the keystream block cached by the
// sender's Seal.
func (cc *CipherCache) Link(a, b topology.NodeID) (*Cipher, bool) {
	id := linkID(a, b)
	e, seen := cc.links[id]
	if seen {
		if e.keyGen == cc.gen {
			return e.c, e.c != nil
		}
		if e.okGen == cc.gen && !e.ok {
			return nil, false
		}
	}
	key, ok := cc.scheme.SharedKey(a, b)
	if !ok {
		if e.c != nil {
			cc.free = append(cc.free, e.c)
		}
		cc.links[id] = linkEntry{okGen: cc.gen, keyGen: cc.gen}
		return nil, false
	}
	c := e.c
	switch {
	case c != nil:
		c.rekey(cc.suite, key)
	case len(cc.free) > 0:
		n := len(cc.free)
		c = cc.free[n-1]
		cc.free[n-1] = nil
		cc.free = cc.free[:n-1]
		c.rekey(cc.suite, key)
	default:
		if cc.slabUsed == len(cc.slab) {
			cc.slab = make([]Cipher, cipherSlabSize)
			cc.slabUsed = 0
		}
		c = &cc.slab[cc.slabUsed]
		cc.slabUsed++
		c.suite = cc.suite
		c.key = key
		c.initSuite()
	}
	cc.links[id] = linkEntry{c: c, ok: true, okGen: cc.gen, keyGen: cc.gen}
	return c, true
}

// SealReq is one entry of a SealBatch call: inputs Src/Dst/Nonce/Value,
// outputs Sealed/OK. OK is false when the scheme gives the pair no key.
type SealReq struct {
	Src, Dst topology.NodeID
	Nonce    uint32
	Value    int64
	Sealed   Sealed
	OK       bool
}

// OpenReq is one entry of an OpenBatch call: inputs Src/Dst/Sealed,
// outputs Value/Err (ErrAuth on tag mismatch, ErrNoKey without a key).
type OpenReq struct {
	Src, Dst topology.NodeID
	Sealed   Sealed
	Value    int64
	Err      error
}

// ErrNoKey is reported by OpenBatch when the scheme gives the pair no key.
var ErrNoKey = errors.New("linksec: no shared key for link")

// SealBatch seals every request in place. Consecutive requests on the same
// link share one Link lookup, and paired nonces (2k, 2k+1) on a link share
// one AES block via the cipher's keystream cache — a node sealing all its
// slices for a round in one call is the intended shape. The requests'
// sealed outputs are identical to issuing Link+Seal per entry.
func (cc *CipherCache) SealBatch(reqs []SealReq) {
	var (
		c    *Cipher
		cOK  bool
		have bool
		la   topology.NodeID
		lb   topology.NodeID
	)
	for i := range reqs {
		r := &reqs[i]
		if !have || r.Src != la || r.Dst != lb {
			c, cOK = cc.Link(r.Src, r.Dst)
			la, lb, have = r.Src, r.Dst, true
		}
		if !cOK {
			r.OK = false
			continue
		}
		r.Sealed = c.Seal(r.Nonce, r.Value)
		r.OK = true
	}
}

// OpenBatch authenticates and decrypts every request in place, with the
// same per-link lookup sharing as SealBatch.
func (cc *CipherCache) OpenBatch(reqs []OpenReq) {
	var (
		c    *Cipher
		cOK  bool
		have bool
		la   topology.NodeID
		lb   topology.NodeID
	)
	for i := range reqs {
		r := &reqs[i]
		if !have || r.Src != la || r.Dst != lb {
			c, cOK = cc.Link(r.Src, r.Dst)
			la, lb, have = r.Src, r.Dst, true
		}
		if !cOK {
			r.Value, r.Err = 0, ErrNoKey
			continue
		}
		r.Value, r.Err = c.Open(r.Sealed)
	}
}
