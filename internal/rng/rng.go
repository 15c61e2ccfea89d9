// Package rng provides deterministic, splittable pseudo-random number
// streams for reproducible simulation.
//
// Every run of the simulator is driven by a single root seed; independent
// subsystems (deployment, MAC backoff, slicing, attacker coin flips, ...)
// each derive their own stream with Split, so adding randomness consumption
// to one subsystem never perturbs another. The generator is SplitMix64 for
// stream derivation and xoshiro256** for the streams themselves — both are
// small, fast, and well understood; no external dependencies.
package rng

// Stream is a deterministic pseudo-random number stream. It is NOT safe for
// concurrent use; derive one stream per goroutine with Split.
type Stream struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used to seed xoshiro state and to derive child stream seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed. Streams with distinct seeds are
// statistically independent.
func New(seed uint64) *Stream {
	r := seeded(seed)
	return &r
}

// seeded is New by value.
func seeded(seed uint64) Stream {
	st := seed
	var r Stream
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent child stream identified by label. Splitting
// does not advance the parent, so the set of children is stable regardless
// of how much randomness the parent itself consumes.
func (r *Stream) Split(label uint64) *Stream {
	c := r.Derive(label)
	return &c
}

// Derive is Split by value: r.Derive(label) == *r.Split(label). A caller
// that holds the child in a struct field or a local keeps it off the heap.
func (r *Stream) Derive(label uint64) Stream {
	// Mix the current state with the label through SplitMix64 so that
	// (stream, label) pairs map to well-separated seeds.
	seed := r.s[0] ^ rotl(r.s[2], 17) ^ (label * 0xd1342543de82ef95)
	return seeded(splitmix64(&seed))
}

// SplitPath derives a child stream by splitting along each label in turn:
// r.SplitPath(a, b, c) == r.Split(a).Split(b).Split(c). Hierarchical paths
// (experiment → point → trial) give every leaf an independent stream with
// no cross-path collisions, unlike flat seed arithmetic. With no labels it
// returns r itself.
func (r *Stream) SplitPath(labels ...uint64) *Stream {
	child := r
	for _, label := range labels {
		child = child.Split(label)
	}
	return child
}

// SplitString derives a child stream labeled by a string (FNV-1a hash of
// name). It lets path roots be named ("fig6", "deployment") rather than
// numbered, so adding an experiment never renumbers another's streams.
func (r *Stream) SplitString(name string) *Stream {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return r.Split(h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// Int64n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Stream) Int64n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n with non-positive n")
	}
	return int64(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// nearly-divisionless rejection method.
func (r *Stream) boundedUint64(bound uint64) uint64 {
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *Stream) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample k out of range")
	}
	return r.SampleAppend(make([]int, 0, k), n, k)
}

// SampleAppend appends k distinct values drawn uniformly from [0, n) to dst
// and returns the extended slice. It consumes exactly the same random draws
// as Sample with the same (n, k), so the two are interchangeable without
// perturbing downstream streams. It panics if k > n or k < 0.
func (r *Stream) SampleAppend(dst []int, n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample k out of range")
	}
	// Partial Fisher–Yates over an index remap: O(k) space for small k. The
	// remap holds at most 2k entries; for the small k the protocol uses
	// (slice counts l ≤ a handful) a linear scan over a stack array beats a
	// map and allocates nothing.
	if k <= 16 {
		var keys, vals [32]int
		nk := 0
		lookup := func(x int) int {
			for i := 0; i < nk; i++ {
				if keys[i] == x {
					return vals[i]
				}
			}
			return x
		}
		store := func(x, v int) {
			for i := 0; i < nk; i++ {
				if keys[i] == x {
					vals[i] = v
					return
				}
			}
			keys[nk], vals[nk] = x, v
			nk++
		}
		for i := 0; i < k; i++ {
			j := i + r.Intn(n-i)
			vj := lookup(j)
			vi := lookup(i)
			store(j, vi)
			dst = append(dst, vj)
		}
		return dst
	}
	remap := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vj, ok := remap[j]
		if !ok {
			vj = j
		}
		vi, ok := remap[i]
		if !ok {
			vi = i
		}
		remap[j] = vi
		dst = append(dst, vj)
	}
	return dst
}
