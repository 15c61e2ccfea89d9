// Package radio models the shared wireless medium of a sensor network —
// the physical layer of our ns-2 substitute.
//
// The model captures the properties the paper's evaluation depends on:
//
//   - Broadcast: every frame is heard by every node in range of the sender,
//     which is what makes eavesdropping (and the paper's two-colored-HELLO
//     detection argument) possible. Promiscuous taps observe all traffic.
//   - Collisions: two overlapping transmissions audible at a receiver
//     corrupt each other there (including hidden-terminal collisions the
//     MAC cannot prevent); a node cannot receive while transmitting.
//   - Timing: a frame of s bytes occupies the channel for s*8/DataRate
//     seconds; the evaluation uses the paper's 1 Mbps.
//   - Accounting: global byte/frame counters feed the
//     communication-overhead experiments (Figure 7).
//
// Propagation delay is negligible at sensor-network scales (50 m ≈ 0.17 µs)
// and is modelled as zero.
//
// Every reception of one frame ends at the same instant (zero propagation
// delay), so a transmission schedules exactly ONE end-of-air event that
// resolves its receptions in deterministic neighbor order — not one event
// per neighbor. Transmission records (and the receptions inlined in them)
// recycle through a per-medium free list, making the steady-state
// per-frame path allocation-free.
//
// Carrier state needs no per-reception release. End-of-air events fire in
// the order of their key (end time, transmission number), so the key of
// the last one fired is a watermark: a node hears a carrier iff the
// latest-ending reception it ever started has a key above the watermark.
// That frees a unicast frame from touching its unaddressed hearers at
// end-of-air: its record holds the addressee's reception alone, and
// resolving it costs the same at any sender degree. Frames whose every
// hearer is observable — broadcasts, promiscuous coalesced batches, and
// any frame while a tap or query tracer is attached — record every
// reception.
package radio

import (
	"fmt"

	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// BatchReceiver handles one frame for every node that decoded it, in
// deterministic neighbor order. The medium resolves all of a
// transmission's receptions first (carrier bookkeeping, energy, taps, obs,
// stats) and then hands the frame to the batch receiver exactly once, so a
// MAC can decode it once and fan the shared view out to every receiver.
// Neither the frame nor the `to` slice may be retained past the call:
// senders reuse their buffers across transmissions, so a receiver that
// needs the bytes later must copy.
type BatchReceiver func(frame []byte, to []topology.NodeID)

// Tap observes every frame audible at a node, decoded or not — the
// eavesdropper's and the monitor's view of the medium. collided reports
// whether the frame was corrupted at this observer. As with BatchReceiver,
// the frame slice must not be retained past the call.
type Tap func(observer topology.NodeID, src, dst topology.NodeID, frame []byte, collided bool)

// Stats are cumulative medium counters.
type Stats struct {
	FramesSent      uint64
	BytesSent       uint64
	FramesDelivered uint64 // successful decodes at addressed receivers
	FramesCollided  uint64 // receptions lost to collisions or half-duplex

	// FramesCoalesced counts KindSliceBatch transmissions and
	// SlicesCoalesced the slices they carried — the frame economy the
	// -coalesce mode buys (both stay 0 with coalescing off).
	FramesCoalesced uint64
	SlicesCoalesced uint64
}

// Medium is the shared radio channel over a fixed topology. It is driven
// entirely by the owning simulation and is not safe for concurrent use.
type Medium struct {
	sim       *eventsim.Sim
	net       *topology.Network
	rateBps   float64
	batchRecv BatchReceiver
	batch     []topology.NodeID // reusable ok-receiver staging for finish
	taps      []Tap

	rx       []nodeRx        // per node: carrier state
	txNum    uint64          // transmissions started; numbers each one
	finEnd   eventsim.Time   // watermark: the (end, num) key of the
	finNum   uint64          // last end-of-air event fired
	txPool   []*transmission // recycled transmission records
	stats    Stats
	meter    *energy.Meter
	lossRate float64
	lossRand *rng.Stream
	obs      *mediumObs
	qt       *qtrace.Tracer
	qtModel  energy.Model // per-byte joule attribution for traced frames
}

// mediumObs holds the medium's pre-resolved instrument handles, indexed
// by packet.Kind (0 = unknown). A nil *mediumObs disables instrumentation
// for the cost of one pointer check per frame.
type mediumObs struct {
	txFrames   [int(packet.KindSliceBatch) + 1]obs.Counter
	txBytes    [int(packet.KindSliceBatch) + 1]obs.Counter
	rxFrames   [int(packet.KindSliceBatch) + 1]obs.Counter
	rxBytes    [int(packet.KindSliceBatch) + 1]obs.Counter
	collFrames [int(packet.KindSliceBatch) + 1]obs.Counter
	dropBytes  [int(packet.KindSliceBatch) + 1]obs.Counter

	coalesced      obs.Counter
	slicesPerFrame obs.Histogram
}

// kindLabels maps packet.Kind to its metric label value.
var kindLabels = [int(packet.KindSliceBatch) + 1]string{
	"unknown", "hello", "query", "slice", "aggregate", "ack", "slice_batch",
}

// SetObs attaches an instrumentation sink. Label sets resolve to dense
// counter handles here, once; the per-frame path then pays one nil check
// plus array-indexed adds and stays allocation-free.
func (m *Medium) SetObs(sink *obs.Sink) {
	if sink == nil || sink.Reg == nil {
		m.obs = nil
		return
	}
	mo := &mediumObs{}
	for k, label := range kindLabels {
		kl := obs.Label{Name: "kind", Value: label}
		mo.txFrames[k] = sink.Reg.Counter("ipda_radio_tx_frames_total", "frames put on the air", kl)
		mo.txBytes[k] = sink.Reg.Counter("ipda_radio_tx_bytes_total", "bytes put on the air (incl. physical overhead)", kl)
		mo.rxFrames[k] = sink.Reg.Counter("ipda_radio_rx_frames_total", "frames decoded at addressed receivers", kl)
		mo.rxBytes[k] = sink.Reg.Counter("ipda_radio_rx_bytes_total", "bytes decoded at addressed receivers", kl)
		mo.collFrames[k] = sink.Reg.Counter("ipda_radio_collision_frames_total", "addressed receptions lost to collisions, fading, or half-duplex", kl)
		mo.dropBytes[k] = sink.Reg.Counter("ipda_radio_drop_bytes_total", "bytes of addressed receptions lost in the air", kl)
	}
	mo.coalesced = sink.Reg.Counter("ipda_radio_frames_coalesced_total", "multi-slice frames put on the air by the coalescing mode")
	mo.slicesPerFrame = sink.Reg.Histogram("ipda_radio_coalesced_slices", "slices carried per coalesced frame",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16})
	m.obs = mo
}

// SetQTrace attaches a query tracer: every transmission carrying
// a trace context gets its airtime, bytes, and energy (tx plus the rx
// cost of every audible reception, under model's per-byte rates)
// attributed to the causing span. Tracing only reads medium state; the
// disabled path is one nil check per frame. Frames already in the air
// when the tracer is attached are attributed only in part.
func (m *Medium) SetQTrace(t *qtrace.Tracer, model energy.Model) {
	m.qt = t
	m.qtModel = model
}

// nodeRx is one node's carrier state. Instead of listing the receptions
// in progress at the node, it keeps the key (rxEnd, rxTx) — end time, then
// transmission number — of the latest-ending reception ever started there,
// and a generation that every corrupting event bumps: a new reception
// starting at the node (which collides with every reception already in
// progress there) and the node starting to transmit (half-duplex).
//
// The node hears a carrier iff its key is above the medium's watermark
// (see carrier). A reception remembers the generation it started in, so it
// survived iff the generation is unchanged when it ends — the same outcome
// as marking every listed reception corrupt, with no list to append to,
// scan, or hold pointers in, and nothing to release at end-of-air.
type nodeRx struct {
	txUntil eventsim.Time // end of the node's current transmission
	rxEnd   eventsim.Time // end of the latest-ending reception started here
	rxTx    uint64        // its transmission number: the key's tie-break
	gen     uint32        // corrupting events seen by the node
}

// reception is one neighbor's view of a frame in flight, inline in its
// transmission's recs slice. ok records whether the reception was clean at
// its start; gen is the neighbor's generation right after it began.
type reception struct {
	nb  topology.NodeID // the observer
	gen uint32
	ok  bool
}

// transmission is one frame in flight: the shared fields of all its
// receptions plus the single end-of-air event closure. The closure is built
// once per pooled record and captures the record itself, so a recycled
// transmission schedules its completion without allocating.
type transmission struct {
	src   topology.NodeID
	dst   topology.NodeID
	frame []byte
	size  int
	end   eventsim.Time // end-of-air instant
	num   uint64        // transmission number: end-of-air tie-break
	recs  []reception   // every hearer's, or the addressee's alone
	fire  func()
}

// New creates a medium over net driven by sim at the given data rate.
func New(sim *eventsim.Sim, net *topology.Network, rateBps float64) *Medium {
	if rateBps <= 0 {
		panic("radio: data rate must be positive")
	}
	return &Medium{
		sim:     sim,
		net:     net,
		rateBps: rateBps,
		rx:      make([]nodeRx, net.N()),
	}
}

// PaperRate is the 1 Mbps data rate of the paper's simulation setup.
const PaperRate = 1e6

// Net returns the network the medium currently simulates — the one passed
// to New or the latest Reset. MAC layers that derive geometry-dependent
// schedules (slotted TDMA) read it at their own Reset time.
func (m *Medium) Net() *topology.Network { return m.net }

// Reset returns the medium to its post-New state over a (possibly new)
// topology while keeping its allocated storage: per-node tables are resized
// and cleared in place, and the transmission pool survives so the next
// run's frames reuse this run's records. Receivers, taps, the meter, the
// loss model, and the obs sink are all detached — exactly the fields New
// leaves unset — so the owning stack must rewire what it needs, same as
// after a fresh New. The owning sim must be Reset with it: frames still in
// the air lose their end-of-air events (their records are garbage, a
// bounded loss), and the cleared carrier state assumes none will fire.
func (m *Medium) Reset(net *topology.Network) {
	n := net.N()
	m.net = net
	m.batchRecv = nil
	m.taps = m.taps[:0]
	m.rx = resizeCleared(m.rx, n)
	m.txNum, m.finEnd, m.finNum = 0, 0, 0
	m.stats = Stats{}
	m.meter = nil
	m.lossRate = 0
	m.lossRand = nil
	m.obs = nil
	m.qt = nil
}

func resizeCleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetBatchReceiver installs the medium-wide decode callback: finish
// resolves every reception's bookkeeping first and then delivers the frame
// once, with the ordered list of nodes that decoded it. Without one, frames
// are resolved and counted but delivered to no one. Reset detaches it.
func (m *Medium) SetBatchReceiver(r BatchReceiver) { m.batchRecv = r }

// AddTap installs a promiscuous observer over the whole medium. It sees
// every frame that starts after it is installed; a unicast frame already
// in the air has recorded its addressee's reception only.
func (m *Medium) AddTap(t Tap) { m.taps = append(m.taps, t) }

// SetMeter attaches an energy meter: every transmission charges its
// sender and every audible frame charges its hearers (decoded or not —
// the radio must power its receive chain either way).
func (m *Medium) SetMeter(meter *energy.Meter) { m.meter = meter }

// SetLoss adds independent per-reception fading loss: each reception is
// corrupted with probability rate on top of the collision model, drawing
// from rand. This approximates shadowing/fading that a disk propagation
// model otherwise hides. rate must be in [0, 1).
func (m *Medium) SetLoss(rate float64, rand *rng.Stream) {
	if rate < 0 || rate >= 1 {
		panic("radio: loss rate must be in [0, 1)")
	}
	m.lossRate = rate
	m.lossRand = rand
}

// Stats returns cumulative medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// TotalBytes returns the total bytes put on the air.
func (m *Medium) TotalBytes() uint64 { return m.stats.BytesSent }

// Duration returns the channel occupancy of a frame of size bytes.
func (m *Medium) Duration(size int) eventsim.Time {
	return eventsim.Time(float64(size) * 8 / m.rateBps)
}

// Busy reports whether node id senses the channel busy right now: it is
// transmitting, or at least one transmitter is audible.
func (m *Medium) Busy(id topology.NodeID) bool {
	r := &m.rx[id]
	return r.txUntil > m.sim.Now() || m.carrier(r)
}

// carrier reports whether some reception started at r has not yet had
// its end-of-air event. Every transmission schedules exactly one
// end-of-air event, at its end time, and the event queue fires in (time,
// scheduling sequence) order. Transmission numbers grow in scheduling
// order, so end-of-air events fire in (end, num) order: the ones that
// have fired are exactly those keyed at most the watermark (finEnd,
// finNum). The latest-keyed reception at r is the last to end, so r hears
// a carrier iff its key is above the watermark — exact-time ties
// included, which is what the transmission-number tie-break is for.
func (m *Medium) carrier(r *nodeRx) bool {
	return r.rxEnd > m.finEnd || (r.rxEnd == m.finEnd && r.rxTx > m.finNum)
}

// getTx pops a transmission record from the pool, building the completion
// closure only on first allocation.
func (m *Medium) getTx() *transmission {
	if n := len(m.txPool); n > 0 {
		tx := m.txPool[n-1]
		m.txPool[n-1] = nil
		m.txPool = m.txPool[:n-1]
		return tx
	}
	tx := &transmission{}
	tx.fire = func() { m.finish(tx) }
	return tx
}

// Transmit puts a frame on the air from src. size is the on-air length in
// bytes (including physical overhead); dst is a node ID or
// packet.Broadcast. Delivery outcomes are resolved when the transmission
// ends. Transmitting while already transmitting is a MAC bug and panics.
//
// Exactly one simulation event is scheduled per call, regardless of the
// sender's degree: all receptions end at the same instant and are resolved
// by the same event in neighbor order.
func (m *Medium) Transmit(src topology.NodeID, dst int32, frame []byte, size int) {
	now := m.sim.Now()
	self := &m.rx[src]
	if self.txUntil > now {
		panic(fmt.Sprintf("radio: node %d transmit while transmitting", src))
	}
	dur := m.Duration(size)
	self.txUntil = now + dur
	// A node that starts transmitting corrupts any reception in progress
	// at itself (half-duplex).
	self.gen++
	m.stats.FramesSent++
	m.stats.BytesSent += uint64(size)
	if m.meter != nil {
		m.meter.ChargeTx(src, size)
	}
	if c := packet.FrameBatchCount(frame); c > 0 {
		m.stats.FramesCoalesced++
		m.stats.SlicesCoalesced += uint64(c)
		if m.obs != nil {
			m.obs.coalesced.Inc()
			m.obs.slicesPerFrame.Observe(float64(c))
		}
	}
	if m.obs != nil {
		k := packet.FrameKind(frame)
		m.obs.txFrames[k].Inc()
		m.obs.txBytes[k].Add(float64(size))
	}
	if m.qt != nil {
		if span := qtrace.Ref(packet.FrameTraceSpan(frame)); span != qtrace.None {
			m.qt.AddAir(span, float64(dur), size)
			m.qt.AddJoules(span, float64(size)*m.qtModel.TxPerByte)
		}
	}

	m.txNum++
	end := now + dur
	tx := m.getTx()
	tx.src, tx.dst, tx.frame, tx.size = src, topology.NodeID(dst), frame, size
	tx.end, tx.num = end, m.txNum
	tx.recs = tx.recs[:0]
	// Only the addressee can decode a unicast frame, so its reception is
	// the only one finish must resolve — unless something observes every
	// hearer: a broadcast, a tap, a query tracer (rx energy per hearer),
	// or a coalesced batch delivered promiscuously.
	all := dst == packet.Broadcast || len(m.taps) > 0 || m.qt != nil ||
		(m.batchRecv != nil && packet.FrameKind(frame) == packet.KindSliceBatch)
	rx, lossy, num := m.rx, m.lossRate > 0, m.txNum
	for _, nb := range m.net.Neighbors(src) {
		ok := !(lossy && m.lossRand.Bool(m.lossRate))
		r := &rx[nb]
		// The overlap corrupts the receptions already in progress at nb:
		// bumping the generation invalidates them all at once.
		r.gen++
		if all || nb == tx.dst {
			// A receiver busy transmitting cannot decode, and a reception
			// overlapping others at nb is corrupt.
			if r.txUntil > now || m.carrier(r) {
				ok = false
			}
			tx.recs = append(tx.recs, reception{nb: nb, gen: r.gen, ok: ok})
		}
		// The new key beats every key recorded so far on its number, so it
		// is nb's latest iff it ends no earlier.
		if end >= r.rxEnd {
			r.rxEnd, r.rxTx = end, num
		}
	}
	m.sim.At(end, tx.fire)
}

// finish resolves every recorded reception of one transmission, in
// neighbor order — the same order per-neighbor events fired in when each
// reception had its own event, so event-level determinism is unchanged.
// It first raises the watermark to the transmission's key, which releases
// its carrier at every hearer at once, recorded or not.
//
// Resolution is two passes: the first settles every reception's outcome
// and bookkeeping (half-duplex, energy, qtrace, taps, stats, obs) while
// staging the nodes that decoded the frame; the second hands the frame to
// the batch receiver once. Handlers never read transient radio state
// synchronously (they only schedule strictly-future events) and the
// bookkeeping draws no randomness, so the split is behavior-identical to
// dispatching each receiver as its reception resolves — receivers still
// observe the frame in neighbor order.
//
// Coalesced multi-slice frames (packet.KindSliceBatch) are delivered
// promiscuously: the frame is anchored to one ACKing destination but
// carries slices for several neighbors, so every node that decoded it
// receives it. Delivery stats still count only the addressed anchor,
// keeping FramesDelivered's meaning; coalescing has its own tx-side
// counters.
func (m *Medium) finish(tx *transmission) {
	m.finEnd, m.finNum = tx.end, tx.num
	deliver := m.batch[:0]
	batched := m.batchRecv != nil
	promisc := batched && packet.FrameKind(tx.frame) == packet.KindSliceBatch
	now := m.sim.Now()
	if m.meter != nil {
		// Every hearer powers its receive chain, recorded or not.
		for _, nb := range m.net.Neighbors(tx.src) {
			m.meter.ChargeRx(nb, tx.size)
		}
	}
	for _, rec := range tx.recs {
		nb := rec.nb
		r := &m.rx[nb]
		// The reception decodes iff it was clean at its start, nothing
		// corrupted it since (generation unchanged), and the receiver is not
		// mid-transmission at the end of the frame.
		ok := rec.ok && rec.gen == r.gen && !(r.txUntil > now)
		if m.qt != nil {
			if span := qtrace.Ref(packet.FrameTraceSpan(tx.frame)); span != qtrace.None {
				m.qt.AddJoules(span, float64(tx.size)*m.qtModel.RxPerByte)
			}
		}
		addressed := tx.dst == topology.NodeID(packet.Broadcast) || tx.dst == nb
		for _, tap := range m.taps {
			tap(nb, tx.src, tx.dst, tx.frame, !ok)
		}
		if !ok {
			if addressed {
				m.stats.FramesCollided++
				if m.obs != nil {
					k := packet.FrameKind(tx.frame)
					m.obs.collFrames[k].Inc()
					m.obs.dropBytes[k].Add(float64(tx.size))
				}
			}
			continue
		}
		if addressed {
			m.stats.FramesDelivered++
			if m.obs != nil {
				k := packet.FrameKind(tx.frame)
				m.obs.rxFrames[k].Inc()
				m.obs.rxBytes[k].Add(float64(tx.size))
			}
		}
		if batched && (addressed || promisc) {
			deliver = append(deliver, nb)
		}
	}
	frame := tx.frame
	tx.frame = nil // do not pin the sender's buffer while pooled
	m.txPool = append(m.txPool, tx)
	m.batch = deliver[:0]
	if batched && len(deliver) > 0 {
		m.batchRecv(frame, deliver)
	}
}
