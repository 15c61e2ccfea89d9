package packet

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// samePacket reports whether a and b decoded to the same packet. Entries
// compare by content: a decode into a reused Packet keeps a non-nil empty
// backing array where a fresh one has nil.
func samePacket(a, b *Packet) bool {
	x, y := *a, *b
	x.Entries, y.Entries = nil, nil
	return reflect.DeepEqual(x, y) && slices.Equal(a.Entries, b.Entries)
}

// FuzzUnmarshal drives DecodeFrame, the wire decoder the MAC runs, with
// arbitrary bytes. It must never panic; a decode into a reused scratch
// Packet must match a decode into a zero one; and anything it accepts must
// re-marshal to a frame that decodes to the same header and re-marshals to
// itself.
func FuzzUnmarshal(f *testing.F) {
	seeds := []*Packet{
		{Header: Header{Kind: KindHello, Src: 1, Dst: Broadcast, Round: 2, Seq: 3}, Color: Red, Hop: 4},
		{Header: Header{Kind: KindQuery, Src: 0, Dst: Broadcast, Round: 1}, Func: 9},
		{Header: Header{Kind: KindSlice, Src: 5, Dst: 6, Round: 7, Seq: 8}, Cipher: [8]byte{1, 2, 3}, Nonce: 9, Tag: 10, Color: Blue},
		{Header: Header{Kind: KindAggregate, Src: 11, Dst: 12, Round: 13}, Value: -14, Count: 15, Color: Red},
		{Header: Header{Kind: KindAck, Src: 16, Dst: 17, Seq: 18}},
	}
	for _, p := range seeds {
		f.Add(p.Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	// A multi-entry coalesced batch, and a traced slice: the entry list
	// and the in-band trace context are the decoder's least-seeded paths.
	batch := &Packet{Header: Header{Kind: KindSliceBatch, Src: 19, Dst: 20, Round: 21, Seq: 22}, Entries: []SliceEntry{
		{Dst: 20, Cipher: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}, Nonce: 23, Tag: 24, Color: Red},
		{Dst: 25, Cipher: [8]byte{9}, Nonce: 26, Tag: 27, Color: Blue},
		{Dst: 28, Nonce: 29, Tag: 30, Color: Red},
	}}
	traced := &Packet{Header: Header{Kind: KindSlice, Src: 31, Dst: 32, Round: 33, Seq: 34, TraceQ: 35, TraceSpan: 0xdeadbeef},
		Cipher: [8]byte{0xff, 0, 0xff}, Nonce: 36, Tag: 37, Color: Blue}
	batchFrame := batch.Marshal()
	f.Add(batchFrame)
	f.Add(traced.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		p := new(Packet)
		err := DecodeFrame(p, data)
		// The MAC decodes every frame into one scratch Packet and keeps its
		// Entries backing array; here the scratch last held a 3-entry batch.
		var scratch Packet
		if err := DecodeFrame(&scratch, batchFrame); err != nil || len(scratch.Entries) != 3 {
			t.Fatalf("batch seed decoded to %d entries, err %v", len(scratch.Entries), err)
		}
		scratchErr := DecodeFrame(&scratch, data)
		if (err == nil) != (scratchErr == nil) || (err != nil && err.Error() != scratchErr.Error()) {
			t.Fatalf("fresh decode error %v, scratch decode error %v", err, scratchErr)
		}
		if !samePacket(p, &scratch) {
			t.Fatalf("scratch decode %+v differs from fresh decode %+v", scratch, *p)
		}
		if err != nil {
			return
		}
		out := p.Marshal()
		// The decoder may have accepted trailing garbage; the canonical
		// re-encoding must itself round-trip exactly.
		q := new(Packet)
		if err := DecodeFrame(q, out); err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if q.Header != p.Header {
			t.Fatalf("header mutated: %+v vs %+v", q.Header, p.Header)
		}
		if !bytes.Equal(q.Marshal(), out) {
			t.Fatal("marshal not a fixed point")
		}
	})
}
