package packet

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindHello:     "HELLO",
		KindQuery:     "QUERY",
		KindSlice:     "SLICE",
		KindAggregate: "AGGREGATE",
		KindAck:       "ACK",
		Kind(99):      "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if Red.String() != "red" || Blue.String() != "blue" || NoColor.String() != "none" {
		t.Fatal("Color.String wrong")
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	data := p.Marshal()
	if len(data) != p.Size()-PhysOverhead+traceCtxSize {
		t.Fatalf("%v: marshal length %d, Size-PhysOverhead+ctx %d", p.Kind, len(data), p.Size()-PhysOverhead+traceCtxSize)
	}
	q := new(Packet)
	err := DecodeFrame(q, data)
	if err != nil {
		t.Fatalf("%v: unmarshal: %v", p.Kind, err)
	}
	return q
}

func TestHelloRoundTrip(t *testing.T) {
	p := &Packet{
		Header: Header{Kind: KindHello, Src: 7, Dst: Broadcast, Round: 3},
		Color:  Red,
		Hop:    12,
	}
	q := roundTrip(t, p)
	if q.Kind != KindHello || q.Src != 7 || q.Dst != Broadcast || q.Round != 3 || q.Color != Red || q.Hop != 12 {
		t.Fatalf("round trip mismatch: %+v", q)
	}
}

func TestSliceRoundTrip(t *testing.T) {
	p := &Packet{
		Header: Header{Kind: KindSlice, Src: 100, Dst: 200, Round: 9},
		Cipher: [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
		Nonce:  0xdeadbeef,
		Tag:    0xcafe1234,
		Color:  Blue,
	}
	q := roundTrip(t, p)
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("slice round trip: got %+v, want %+v", q, p)
	}
}

func TestAggregateRoundTrip(t *testing.T) {
	p := &Packet{
		Header: Header{Kind: KindAggregate, Src: 5, Dst: 6, Round: 1},
		Value:  -123456789012345,
		Count:  4242,
		Color:  Red,
	}
	q := roundTrip(t, p)
	if q.Value != p.Value || q.Count != p.Count || q.Color != p.Color {
		t.Fatalf("aggregate round trip: %+v", q)
	}
}

func TestQueryAndAckRoundTrip(t *testing.T) {
	p := &Packet{Header: Header{Kind: KindQuery, Src: 0, Dst: Broadcast, Round: 2}, Func: 3}
	if q := roundTrip(t, p); q.Func != 3 {
		t.Fatalf("query Func = %d", q.Func)
	}
	a := &Packet{Header: Header{Kind: KindAck, Src: 1, Dst: 2, Round: 2}}
	if q := roundTrip(t, a); q.Kind != KindAck {
		t.Fatalf("ack kind = %v", q.Kind)
	}
}

func TestSizes(t *testing.T) {
	// Relative sizes matter for overhead measurements: every frame pays
	// the same fixed cost, bodies differ per kind.
	hello := (&Packet{Header: Header{Kind: KindHello}}).Size()
	slice := (&Packet{Header: Header{Kind: KindSlice}}).Size()
	agg := (&Packet{Header: Header{Kind: KindAggregate}}).Size()
	ack := (&Packet{Header: Header{Kind: KindAck}}).Size()
	if !(ack < hello && hello < agg && agg < slice) {
		t.Fatalf("size ordering wrong: ack=%d hello=%d agg=%d slice=%d", ack, hello, agg, slice)
	}
	if ack != PhysOverhead+13 {
		t.Fatalf("ack size = %d", ack)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var q Packet
	if err := DecodeFrame(&q, nil); err == nil {
		t.Fatal("nil frame accepted")
	}
	if err := DecodeFrame(&q, []byte{1, 2, 3}); err == nil {
		t.Fatal("short frame accepted")
	}
	// Valid header, truncated body.
	p := &Packet{Header: Header{Kind: KindSlice, Src: 1, Dst: 2}}
	data := p.Marshal()
	if err := DecodeFrame(&q, data[:len(data)-4]); err == nil {
		t.Fatal("truncated slice body accepted")
	}
	// Unknown kind.
	bad := append([]byte{}, data...)
	bad[0] = 200
	if err := DecodeFrame(&q, bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestMarshalUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Packet{Header: Header{Kind: Kind(77)}}).Marshal()
}

func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(src, dst int32, round uint16, cipher [8]byte, nonce, tag uint32, value int64, count uint32, colorRaw uint8) bool {
		color := Color(colorRaw % 3) // NoColor, Red, Blue
		for _, kind := range []Kind{KindHello, KindQuery, KindSlice, KindAggregate, KindAck} {
			p := &Packet{
				Header: Header{Kind: kind, Src: src, Dst: dst, Round: round, TraceQ: round, TraceSpan: nonce},
				Color:  color,
				Hop:    uint16(nonce),
				Func:   uint8(tag),
				Cipher: cipher,
				Nonce:  nonce,
				Tag:    tag,
				Value:  value,
				Count:  count,
			}
			q := new(Packet)
			err := DecodeFrame(q, p.Marshal())
			if err != nil {
				return false
			}
			if q.Header != p.Header {
				return false
			}
			switch kind {
			case KindHello:
				if q.Color != p.Color || q.Hop != p.Hop {
					return false
				}
			case KindQuery:
				if q.Func != p.Func {
					return false
				}
			case KindSlice:
				if q.Cipher != p.Cipher || q.Nonce != p.Nonce || q.Tag != p.Tag || q.Color != p.Color {
					return false
				}
			case KindAggregate:
				if q.Value != p.Value || q.Count != p.Count || q.Color != p.Color {
					return false
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendEncodeMatchesMarshal(t *testing.T) {
	for _, kind := range []Kind{KindHello, KindQuery, KindSlice, KindAggregate, KindAck} {
		p := &Packet{
			Header: Header{Kind: kind, Src: 7, Dst: Broadcast, Round: 3, Seq: 12},
			Color:  Blue,
			Hop:    4,
			Func:   9,
			Cipher: [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
			Nonce:  0xDEAD,
			Tag:    0xBEEF,
			Value:  -42,
			Count:  17,
		}
		want := p.Marshal()
		prefix := []byte{0xAA, 0xBB}
		got := p.AppendEncode(append([]byte(nil), prefix...))
		if !bytes.Equal(got[:2], prefix) {
			t.Fatalf("%v: AppendEncode clobbered the prefix", kind)
		}
		if !bytes.Equal(got[2:], want) {
			t.Fatalf("%v: AppendEncode = %x, Marshal = %x", kind, got[2:], want)
		}
	}
}

func TestAppendEncodeAllocFree(t *testing.T) {
	p := &Packet{
		Header: Header{Kind: KindSlice, Src: 3, Dst: 9, Round: 2, Seq: 77},
		Nonce:  0x01020304,
		Tag:    0xA1B2C3D4,
		Color:  Red,
	}
	buf := p.AppendEncode(make([]byte, 0, 64)) // warm
	allocs := testing.AllocsPerRun(200, func() {
		buf = p.AppendEncode(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendEncode into a sized buffer allocated %v per op, want 0", allocs)
	}
}

func TestDecodeFrameMatchesUnmarshal(t *testing.T) {
	p := &Packet{
		Header: Header{Kind: KindAggregate, Src: 5, Dst: 6, Round: 9, Seq: 2},
		Value:  123456789,
		Count:  44,
		Color:  Red,
	}
	frame := p.Marshal()
	var got Packet
	got.Func = 99 // stale state must be cleared by DecodeFrame
	if err := DecodeFrame(&got, frame); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, p) {
		t.Fatalf("DecodeFrame = %+v, want %+v", got, *p)
	}
	if err := DecodeFrame(&got, frame[:3]); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

// TestTraceContext pins the in-band trace context: always encoded,
// recoverable by the FrameTraceSpan peek, and invisible to Size (the
// context rides in the PhysOverhead budget, so byte accounting cannot
// depend on whether a frame is traced).
func TestTraceContext(t *testing.T) {
	p := &Packet{Header: Header{Kind: KindAggregate, Src: 3, Dst: 4, Round: 2}}
	plain := p.Size()
	frame := p.Marshal()
	if FrameTraceSpan(frame) != 0 {
		t.Fatalf("untraced frame span = %d", FrameTraceSpan(frame))
	}
	p.TraceQ, p.TraceSpan = 2, 0xCAFED00D
	if p.Size() != plain {
		t.Fatalf("Size changed with trace context: %d vs %d", p.Size(), plain)
	}
	frame = p.Marshal()
	if got := FrameTraceSpan(frame); got != 0xCAFED00D {
		t.Fatalf("FrameTraceSpan = %#x", got)
	}
	if FrameTraceSpan(frame[:wireHeaderSize-1]) != 0 {
		t.Fatal("truncated frame yielded a span ref")
	}
	q := new(Packet)
	err := DecodeFrame(q, frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.TraceQ != 2 || q.TraceSpan != 0xCAFED00D {
		t.Fatalf("context lost in round trip: %+v", q.Header)
	}
}

// BenchmarkPacketEncode measures encoding one slice frame into a reused
// buffer. Pre-PR baseline (Marshal, fresh slice per frame): 47.65 ns/op,
// 32 B/op, 1 allocs/op.
func BenchmarkPacketEncode(b *testing.B) {
	p := &Packet{
		Header: Header{Kind: KindSlice, Src: 3, Dst: 9, Round: 2, Seq: 77},
		Nonce:  0x01020304,
		Tag:    0xA1B2C3D4,
		Color:  Red,
	}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendEncode(buf[:0])
	}
}
