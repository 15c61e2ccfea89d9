// Package packet defines the over-the-air message formats of iPDA and TAG
// and their binary encodings.
//
// Byte-accurate sizes matter: the paper's Figure 7 measures communication
// overhead in bytes, and the iPDA/TAG overhead ratio (2l+1)/2 is an
// argument about message counts of comparable size. Every message carries a
// common link-layer header (modelled on a TinyOS-style frame) followed by a
// kind-specific body; Size reports the on-air length used by the radio for
// transmission-duration and bandwidth accounting.
package packet

import (
	"encoding/binary"
	"fmt"
)

// Kind discriminates the message types of the protocols.
type Kind uint8

const (
	// KindHello is the tree-construction beacon of Phase I (and of TAG's
	// spanning-tree construction).
	KindHello Kind = iota + 1
	// KindQuery disseminates an aggregation query from the base station.
	KindQuery
	// KindSlice carries one encrypted data slice of Phase II.
	KindSlice
	// KindAggregate carries an intermediate aggregation result up a tree
	// (Phase III).
	KindAggregate
	// KindAck is the link-layer acknowledgement used by the MAC.
	KindAck
	// KindSliceBatch carries several coalesced Phase II slices in one
	// frame: a node with multiple same-round slices packs them — each
	// sealed for its own next-hop link — into one transmission with one
	// MAC exchange. The frame is addressed (and ACKed by) one anchor
	// destination; the other slice targets pick it up promiscuously.
	KindSliceBatch
)

func (k Kind) String() string {
	switch k {
	case KindHello:
		return "HELLO"
	case KindQuery:
		return "QUERY"
	case KindSlice:
		return "SLICE"
	case KindAggregate:
		return "AGGREGATE"
	case KindAck:
		return "ACK"
	case KindSliceBatch:
		return "SLICE_BATCH"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Color identifies the disjoint aggregation tree a node or message belongs
// to. The paper calls the two trees "red" and "blue".
type Color uint8

const (
	// NoColor marks leaf nodes and color-agnostic messages.
	NoColor Color = iota
	// Red is the red aggregation tree.
	Red
	// Blue is the blue aggregation tree.
	Blue
)

func (c Color) String() string {
	switch c {
	case Red:
		return "red"
	case Blue:
		return "blue"
	case NoColor:
		return "none"
	default:
		return fmt.Sprintf("Color(%d)", uint8(c))
	}
}

// TreeColor is the Color tree index t (0, 1, …) goes on the air as, so
// trees 0 and 1 are Red and Blue. Color.Tree inverts it.
func TreeColor(t int) Color { return Color(t + 1) }

// Tree returns the tree index c carries: 0 for Red, 1 for Blue, and -1 for
// NoColor.
func (c Color) Tree() int { return int(c) - 1 }

// Broadcast is the destination address of link-local broadcast frames.
const Broadcast int32 = -1

// Header is the link-layer header shared by every message.
type Header struct {
	Kind  Kind
	Src   int32  // sending node
	Dst   int32  // receiving node, or Broadcast
	Round uint16 // protocol round
	Seq   uint16 // MAC sequence number (set by the MAC; ACKs echo it)

	// TraceQ and TraceSpan are the in-band trace context (see
	// internal/qtrace): the query ID and the sender-side span reference
	// this frame causally belongs to. Both are always encoded so frame
	// layouts never depend on whether tracing is enabled; an untraced
	// frame carries zeroes. The context rides inside the PhysOverhead
	// byte budget (real radios carry comparable metadata in the framing
	// already modeled there), so Size() — and therefore airtime,
	// collisions, and every byte-accounted table — is identical with
	// tracing on or off.
	TraceQ    uint16
	TraceSpan uint32
}

// Packet is one over-the-air frame. Only the fields relevant to Kind are
// meaningful; Marshal encodes exactly those.
type Packet struct {
	Header

	// Hello fields.
	Color Color  // sender's tree color
	Hop   uint16 // sender's hop distance from the base station

	// Query fields.
	Func uint8 // aggregate function identifier

	// Slice fields: the encrypted slice. Nonce and Tag implement the
	// link-level encryption of Section III-C.
	Cipher [8]byte // encrypted 64-bit additive share
	Nonce  uint32
	Tag    uint32 // truncated MAC over the ciphertext

	// Aggregate fields.
	Value int64  // partial aggregate
	Count uint32 // number of readings folded into Value

	// SliceBatch fields: the coalesced slices of a KindSliceBatch frame,
	// each sealed for its own entry destination. DecodeFrame reuses the
	// slice's backing array across decodes, so a scratch Packet stays
	// allocation-free; a holder that outlives the decode must deep-copy.
	Entries []SliceEntry
}

// SliceEntry is one coalesced slice inside a KindSliceBatch frame: the
// per-destination fields a standalone KindSlice frame would carry.
type SliceEntry struct {
	Dst    int32
	Cipher [8]byte
	Nonce  uint32
	Tag    uint32
	Color  Color
}

// Link-layer framing constants, bytes. PhysOverhead models preamble, sync,
// CRC, and addressing not otherwise counted — the fixed per-frame cost any
// real radio pays.
const (
	PhysOverhead = 11
	headerSize   = 1 + 4 + 4 + 2 + 2 // kind + src + dst + round + seq

	// traceCtxSize is the encoded trace context (TraceQ + TraceSpan). It
	// is accounted against PhysOverhead, not added to Size: the modeled
	// physical framing already budgets 11 bytes of non-protocol
	// metadata, 6 of which the simulator uses to carry the context.
	traceCtxSize   = 2 + 4
	wireHeaderSize = headerSize + traceCtxSize

	helloBody     = 1 + 2         // color + hop
	queryBody     = 1             // func
	sliceBody     = 8 + 4 + 4 + 1 // cipher + nonce + tag + color
	aggregateBody = 8 + 4 + 1     // value + count + color
	ackBody       = 0

	sliceEntrySize = 4 + sliceBody // dst + cipher + nonce + tag + color

	// MaxSliceEntries bounds a KindSliceBatch frame: the entry count is
	// carried in one byte, and no sensible coalescing window approaches it.
	MaxSliceEntries = 255
)

// SliceBatchSize returns the on-air length of a KindSliceBatch frame
// carrying n entries — what MAC slot sizing needs before any frame exists.
func SliceBatchSize(n int) int {
	return PhysOverhead + headerSize + 1 + n*sliceEntrySize
}

// Size returns the on-air length of the packet in bytes. The trace
// context does not contribute: it occupies part of the PhysOverhead
// budget (see traceCtxSize), keeping byte accounting independent of
// tracing.
func (p *Packet) Size() int {
	body := 0
	switch p.Kind {
	case KindHello:
		body = helloBody
	case KindQuery:
		body = queryBody
	case KindSlice:
		body = sliceBody
	case KindAggregate:
		body = aggregateBody
	case KindAck:
		body = ackBody
	case KindSliceBatch:
		body = 1 + len(p.Entries)*sliceEntrySize
	}
	return PhysOverhead + headerSize + body
}

// Marshal encodes p into a fresh byte slice of exactly
// Size()-PhysOverhead+traceCtxSize bytes (the trace context is carried
// in bytes already charged to the physical-layer overhead).
func (p *Packet) Marshal() []byte {
	return p.AppendEncode(make([]byte, 0, p.Size()-PhysOverhead+traceCtxSize))
}

// AppendEncode appends p's wire encoding to buf and returns the
// extended slice. Encoding into a reused buffer with enough capacity
// performs no allocation, which is how the MAC recycles one frame
// buffer per node across sends.
func (p *Packet) AppendEncode(buf []byte) []byte {
	buf = append(buf, byte(p.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Src))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Dst))
	buf = binary.BigEndian.AppendUint16(buf, p.Round)
	buf = binary.BigEndian.AppendUint16(buf, p.Seq)
	buf = binary.BigEndian.AppendUint16(buf, p.TraceQ)
	buf = binary.BigEndian.AppendUint32(buf, p.TraceSpan)
	switch p.Kind {
	case KindHello:
		buf = append(buf, byte(p.Color))
		buf = binary.BigEndian.AppendUint16(buf, p.Hop)
	case KindQuery:
		buf = append(buf, p.Func)
	case KindSlice:
		buf = append(buf, p.Cipher[:]...)
		buf = binary.BigEndian.AppendUint32(buf, p.Nonce)
		buf = binary.BigEndian.AppendUint32(buf, p.Tag)
		buf = append(buf, byte(p.Color))
	case KindAggregate:
		buf = binary.BigEndian.AppendUint64(buf, uint64(p.Value))
		buf = binary.BigEndian.AppendUint32(buf, p.Count)
		buf = append(buf, byte(p.Color))
	case KindAck:
	case KindSliceBatch:
		if len(p.Entries) > MaxSliceEntries {
			panic(fmt.Sprintf("packet: %d slice-batch entries exceed %d", len(p.Entries), MaxSliceEntries))
		}
		buf = append(buf, byte(len(p.Entries)))
		for i := range p.Entries {
			e := &p.Entries[i]
			buf = binary.BigEndian.AppendUint32(buf, uint32(e.Dst))
			buf = append(buf, e.Cipher[:]...)
			buf = binary.BigEndian.AppendUint32(buf, e.Nonce)
			buf = binary.BigEndian.AppendUint32(buf, e.Tag)
			buf = append(buf, byte(e.Color))
		}
	default:
		panic(fmt.Sprintf("packet: Marshal of unknown kind %d", p.Kind))
	}
	return buf
}

// FrameKind peeks at the kind byte of an encoded frame without decoding
// the rest, so byte-accounting instrumentation can classify traffic at
// zero cost. Returns 0 for an empty frame or an out-of-range kind.
func FrameKind(frame []byte) Kind {
	if len(frame) == 0 {
		return 0
	}
	k := Kind(frame[0])
	if k < KindHello || k > KindSliceBatch {
		return 0
	}
	return k
}

// FrameBatchCount peeks at the entry count of an encoded KindSliceBatch
// frame without decoding it; 0 for any other (or truncated) frame. The
// radio's coalescing instrumentation classifies transmissions with it.
func FrameBatchCount(frame []byte) int {
	if len(frame) <= wireHeaderSize || Kind(frame[0]) != KindSliceBatch {
		return 0
	}
	return int(frame[wireHeaderSize])
}

// FrameTraceSpan peeks at the sender-side span reference of an encoded
// frame without decoding the rest — the zero-cost classifier the radio
// uses to attribute airtime and energy to the causing span. Returns 0
// (the null reference) for untraced or truncated frames.
func FrameTraceSpan(frame []byte) uint32 {
	if len(frame) < wireHeaderSize {
		return 0
	}
	return binary.BigEndian.Uint32(frame[15:19])
}

// DecodeFrame decodes a frame produced by Marshal into an existing Packet,
// overwriting it entirely. It allocates only when building an error, so
// hot receive paths can decode into a scratch Packet.
func DecodeFrame(p *Packet, data []byte) error {
	entries := p.Entries[:0] // keep the backing array across decodes
	*p = Packet{}
	p.Entries = entries
	if len(data) < wireHeaderSize {
		return fmt.Errorf("packet: frame too short (%d bytes)", len(data))
	}
	p.Kind = Kind(data[0])
	p.Src = int32(binary.BigEndian.Uint32(data[1:5]))
	p.Dst = int32(binary.BigEndian.Uint32(data[5:9]))
	p.Round = binary.BigEndian.Uint16(data[9:11])
	p.Seq = binary.BigEndian.Uint16(data[11:13])
	p.TraceQ = binary.BigEndian.Uint16(data[13:15])
	p.TraceSpan = binary.BigEndian.Uint32(data[15:19])
	body := data[wireHeaderSize:]
	need := func(n int) error {
		if len(body) < n {
			return fmt.Errorf("packet: %v body truncated: %d < %d", p.Kind, len(body), n)
		}
		return nil
	}
	switch p.Kind {
	case KindHello:
		if err := need(helloBody); err != nil {
			return err
		}
		p.Color = Color(body[0])
		p.Hop = binary.BigEndian.Uint16(body[1:3])
	case KindQuery:
		if err := need(queryBody); err != nil {
			return err
		}
		p.Func = body[0]
	case KindSlice:
		if err := need(sliceBody); err != nil {
			return err
		}
		copy(p.Cipher[:], body[:8])
		p.Nonce = binary.BigEndian.Uint32(body[8:12])
		p.Tag = binary.BigEndian.Uint32(body[12:16])
		p.Color = Color(body[16])
	case KindAggregate:
		if err := need(aggregateBody); err != nil {
			return err
		}
		p.Value = int64(binary.BigEndian.Uint64(body[:8]))
		p.Count = binary.BigEndian.Uint32(body[8:12])
		p.Color = Color(body[12])
	case KindAck:
	case KindSliceBatch:
		if err := need(1); err != nil {
			return err
		}
		count := int(body[0])
		if err := need(1 + count*sliceEntrySize); err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			b := body[1+i*sliceEntrySize:]
			var e SliceEntry
			e.Dst = int32(binary.BigEndian.Uint32(b[:4]))
			copy(e.Cipher[:], b[4:12])
			e.Nonce = binary.BigEndian.Uint32(b[12:16])
			e.Tag = binary.BigEndian.Uint32(b[16:20])
			e.Color = Color(b[20])
			p.Entries = append(p.Entries, e)
		}
	default:
		return fmt.Errorf("packet: unknown kind %d", data[0])
	}
	return nil
}
