package linksec

import (
	"encoding/binary"
	"testing"
)

// FuzzOpen seals a share under any key era, flips bits in one
// byte of its wire form — ciphertext, nonce, or tag — and opens the
// result. A tampered seal must fail with ErrAuth, never panic, and never
// yield a value; an untampered one (flip 0) must round-trip. The tag is a
// 32-bit PRF output, so an accepted forgery would take about 2^32 tries.
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
		c := NewCipher(key)
		wire := c.EncryptTo(nil, nonce, value)
		wire[int(pos)%SealedSize] ^= flip
		var s Sealed
		copy(s.Cipher[:], wire[:8])
		s.Nonce = binary.BigEndian.Uint32(wire[8:12])
		s.Tag = binary.BigEndian.Uint32(wire[12:16])
		got, err := c.Open(s)
		wireGot, wireErr := c.DecryptTo(wire)
		if flip == 0 {
			if err != nil || got != value || wireErr != nil || wireGot != value {
				t.Fatalf("untampered seal of %d opened to (%d, %v), wire (%d, %v)", value, got, err, wireGot, wireErr)
			}
			return
		}
		if err != ErrAuth || wireErr != ErrAuth {
			t.Fatalf("byte %d ^ %#x accepted: Open (%d, %v), DecryptTo (%d, %v)", int(pos)%SealedSize, flip, got, err, wireGot, wireErr)
		}
		if got != 0 || wireGot != 0 {
			t.Fatalf("rejected seal leaked a value: %d, %d", got, wireGot)
		}
	})
}
