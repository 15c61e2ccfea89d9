// Package mac implements the medium-access layer of our ns-2 substitute: a
// nonpersistent CSMA scheme with binary exponential backoff, plus
// 802.11-style stop-and-wait ARQ for unicast frames.
//
// Broadcast frames (the HELLO floods) are fire-and-forget, exactly as in
// 802.11. Unicast frames (slices, partial aggregates) are acknowledged:
// the receiver returns an ACK one SIFS after a successful decode, and the
// sender retransmits on ACK timeout up to RetryLimit times before dropping
// the frame. Retransmissions are deduplicated at the receiver by MAC
// sequence number. Carrier sensing prevents most collisions; hidden
// terminals and ACK losses produce the residual loss the paper's Section
// IV-B attributes to "collision in wireless channels".
package mac

import (
	"fmt"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// Handler receives frames the MAC delivers upward (ACKs and duplicate
// retransmissions are filtered out). The packet points into MAC-owned
// scratch and is valid only for the duration of the call: a handler that
// needs the packet afterwards must copy it by value. Delivering the scratch
// directly keeps the receive path allocation-free.
type Handler func(self topology.NodeID, p *packet.Packet)

// Config are the channel-access parameters. The defaults fit the paper's
// 1 Mbps channel with frames of a few tens of bytes.
type Config struct {
	Scheme      Scheme        // access discipline; zero value = CSMA
	SlotTime    eventsim.Time // backoff quantum, seconds
	MinWindow   int           // initial contention window, slots
	MaxWindow   int           // contention window cap, slots
	MaxAttempts int           // busy senses per transmission before giving up
	RetryLimit  int           // unicast retransmissions before dropping
	SIFS        eventsim.Time // short interframe space before an ACK

	// MaxFrameSize optionally raises the data-frame size TDMA slot sizing
	// budgets for, in on-air bytes. Zero (the default) budgets for the
	// largest fixed-size packet kind; a protocol that sends bigger frames
	// (coalesced multi-slice batches) must declare its maximum here so a
	// whole frame, its ACK, and the ARQ guard still fit one slot. CSMA
	// ignores it.
	MaxFrameSize int
}

// DefaultConfig returns parameters tuned to the paper's radio: 100 µs
// slots, windows 8..256, 16 sense attempts, 7 retransmissions.
func DefaultConfig() Config {
	return Config{
		SlotTime:    100e-6,
		MinWindow:   8,
		MaxWindow:   256,
		MaxAttempts: 16,
		RetryLimit:  7,
		SIFS:        10e-6,
	}
}

// Stats are cumulative MAC counters.
type Stats struct {
	Enqueued   uint64
	Sent       uint64 // data transmissions put on the air (incl. retransmissions)
	Dropped    uint64 // frames abandoned after MaxAttempts or RetryLimit
	Deferred   uint64 // busy senses that led to backoff
	Retries    uint64 // unicast retransmissions
	AcksSent   uint64
	Duplicates uint64 // retransmissions suppressed at receivers
}

// frameState is one queued frame. The packet lives in the struct by value
// — the MAC copies at enqueue, deep-copying any coalesced slice entries
// into the record's own reusable buffer — and the struct itself recycles
// through a per-MAC free list, so a steady stream of sends allocates
// nothing.
type frameState struct {
	pkt     packet.Packet
	entries []packet.SliceEntry // backing storage for pkt.Entries
	retries int
	next    *frameState // the frame behind this one in its queue or the free list
}

// frameQueue is one node's send queue, a FIFO linked through
// frameState.next: enqueueing and retiring a frame move no other frame and
// grow no per-node array.
type frameQueue struct {
	head, tail *frameState
	len        int
}

func (q *frameQueue) push(f *frameState) {
	f.next = nil
	if q.tail == nil {
		q.head = f
	} else {
		q.tail.next = f
	}
	q.tail = f
	q.len++
}

// pop unlinks and returns the head; the queue must not be empty.
func (q *frameQueue) pop() *frameState {
	f := q.head
	q.head = f.next
	if q.head == nil {
		q.tail = nil
	}
	q.len--
	return f
}

// MAC schedules transmissions for every node of one network. It is driven
// by the owning simulation and is not safe for concurrent use.
type MAC struct {
	sim      *eventsim.Sim
	medium   *radio.Medium
	cfg      Config
	rand     rng.Stream
	handlers []Handler
	queues   []frameQueue
	fsFree   *frameState // recycled frame records, linked through next
	busy     []bool
	seq      []uint16
	// awaiting[i] is the seq the pending unicast of node i waits an ACK
	// for; acked[i] flips when it arrives.
	awaiting []uint16
	waiting  []bool
	acked    []bool
	// lastSeq holds duplicate suppression's state per directed link: the
	// seq of the last frame a receiver accepted from a sender, with
	// seqSeen set once there is one. The links into node r occupy
	// lastSeq[rxOff[r]:rxOff[r+1]], in the order of r's neighbor row.
	lastSeq []uint32
	rxOff   []int32
	stats   Stats
	obs     *macObs
	qt      *qtrace.Tracer

	// Reusable frame buffers: one data buffer and one ACK buffer per node.
	// A node's previous frame is fully resolved by the medium before it can
	// encode the next one (the radio resolves receptions at end-of-air, and
	// both the next attempt and the ACK path are strictly later), so each
	// buffer is recycled across sends instead of allocated per frame.
	txbuf  [][]byte
	ackbuf [][]byte
	// rxScratch is the decode target for every received frame. Upward
	// deliveries hand the scratch to the handler directly (see Handler).
	// The medium delivers each frame once per transmission (batch path),
	// so a broadcast decodes one time no matter how many nodes heard it —
	// every receiver aliases this shared view.
	rxScratch packet.Packet
	// batchFn is the single batch receiver closure shared by the whole
	// medium; the medium hands over each frame once with the ordered list
	// of nodes that decoded it.
	batchFn radio.BatchReceiver

	// Prebuilt per-node event closures with argument slots. The MAC's state
	// machine keeps at most ONE of each kind pending per node (Send only
	// arms an attempt when the node is idle; retries, ACK checks, and
	// post-broadcast dequeues are each scheduled from the event that retires
	// their predecessor), so a single argument slot per node suffices. The
	// armed flags guard that invariant: if it ever broke, scheduling falls
	// back to a one-off closure with identical behavior instead of
	// clobbering the pending event's arguments.
	attemptFn     []func()
	deqFn         []func()
	checkAckFn    []func()
	ackFn         []func()
	attemptSense  []int
	attemptWindow []int
	attemptArmed  []bool
	ackDst        []int32
	ackSeq        []uint16
	ackArmed      []bool

	// TDMA state (SchemeTDMA only): the two-hop coloring, the frame
	// length in slots, the slot duration, and the coloring's reusable
	// working storage. See tdma.go.
	slot        []int32
	numSlots    int
	slotLen     eventsim.Time
	slotScratch slotScratch
}

// New creates a MAC over medium for a network of n nodes and installs
// itself as the medium receiver for every node. Protocol layers must
// register their upcalls with SetHandler, not with the medium directly.
// The MAC draws its backoffs from its own copy of rand.
func New(sim *eventsim.Sim, medium *radio.Medium, n int, cfg Config, rand *rng.Stream) *MAC {
	m := &MAC{sim: sim, medium: medium}
	m.batchFn = func(frame []byte, to []topology.NodeID) { m.onBatch(frame, to) }
	m.Reset(n, cfg, rand)
	return m
}

// Reset returns the MAC to its post-New state for a new run over the same
// sim/medium pair, reusing all per-node tables, frame records, and event
// closures. Queued frames from the previous run are recycled, counters and
// the duplicate-suppression table are cleared (keeping their storage), and
// the shared receiver closure is reinstalled on the medium (which a
// medium Reset detaches). The table is laid out over the medium's current
// network, so the medium must be Reset first. Handlers and the obs sink
// are dropped — the owning protocol stack rewires them, exactly as after
// New.
func (m *MAC) Reset(n int, cfg Config, rand *rng.Stream) {
	if cfg.SlotTime <= 0 || cfg.MinWindow <= 0 || cfg.MaxWindow < cfg.MinWindow ||
		cfg.MaxAttempts <= 0 || cfg.RetryLimit < 0 || cfg.SIFS <= 0 || cfg.MaxFrameSize < 0 {
		panic("mac: invalid config")
	}
	m.cfg = cfg
	m.rand = *rand
	for i := range m.queues {
		for m.queues[i].head != nil {
			m.putFrame(m.queues[i].pop())
		}
	}
	m.queues = resizeQueues(m.queues, n)
	m.handlers = resizeHandlers(m.handlers, n)
	m.busy = resizeBools(m.busy, n)
	m.seq = resizeU16(m.seq, n)
	m.awaiting = resizeU16(m.awaiting, n)
	m.waiting = resizeBools(m.waiting, n)
	m.acked = resizeBools(m.acked, n)
	m.txbuf = resizeBufs(m.txbuf, n)
	m.ackbuf = resizeBufs(m.ackbuf, n)
	m.resetSeqTable()
	m.stats = Stats{}
	m.obs = nil
	m.qt = nil

	m.attemptFn = resizeFns(m.attemptFn, n)
	m.deqFn = resizeFns(m.deqFn, n)
	m.checkAckFn = resizeFns(m.checkAckFn, n)
	m.ackFn = resizeFns(m.ackFn, n)
	m.attemptSense = resizeInts(m.attemptSense, n)
	m.attemptWindow = resizeInts(m.attemptWindow, n)
	m.attemptArmed = resizeBools(m.attemptArmed, n)
	m.ackDst = resizeI32(m.ackDst, n)
	m.ackSeq = resizeU16(m.ackSeq, n)
	m.ackArmed = resizeBools(m.ackArmed, n)
	for i := range m.attemptFn {
		if m.attemptFn[i] == nil {
			id := topology.NodeID(i)
			m.attemptFn[i] = func() { m.fireAttempt(id) }
			m.deqFn[i] = func() { m.dequeue(id) }
			m.checkAckFn[i] = func() { m.checkAck(id) }
			m.ackFn[i] = func() { m.fireAck(id) }
		}
	}
	m.medium.SetBatchReceiver(m.batchFn)
	if cfg.Scheme == SchemeTDMA {
		m.resetTDMA()
	}
}

// getFrame pops a recycled frame record or allocates one.
func (m *MAC) getFrame() *frameState {
	if f := m.fsFree; f != nil {
		m.fsFree = f.next
		return f
	}
	return &frameState{}
}

func (m *MAC) putFrame(f *frameState) {
	f.next = m.fsFree
	m.fsFree = f
}

// The resize helpers reslice in place when capacity allows (clearing the
// live window) and allocate only on growth, so per-node tables reach a
// steady state after the first few runs at a given size. Closure and
// buffer tables deliberately keep their old entries on regrowth: closures
// stay valid across runs and buffers are overwritten before use.

func resizeQueues(s []frameQueue, n int) []frameQueue {
	if cap(s) < n {
		return make([]frameQueue, n)
	}
	return s[:n]
}

func resizeHandlers(s []Handler, n int) []Handler {
	if cap(s) < n {
		return make([]Handler, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func resizeU16(s []uint16, n int) []uint16 {
	if cap(s) < n {
		return make([]uint16, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func resizeBufs(s [][]byte, n int) [][]byte {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]byte, n-cap(s))...)
	}
	return s[:n]
}

func resizeFns(s []func(), n int) []func() {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]func(), n-cap(s))...)
	}
	return s[:n]
}

// resetSeqTable lays the duplicate-suppression table out over the
// medium's network, one cleared slot per directed link, reusing storage.
func (m *MAC) resetSeqTable() {
	net := m.medium.Net()
	n := net.N()
	m.rxOff = resizeI32(m.rxOff, n+1)
	off := int32(0)
	for i := 0; i < n; i++ {
		m.rxOff[i] = off
		off += int32(net.Degree(topology.NodeID(i)))
	}
	m.rxOff[n] = off
	if cap(m.lastSeq) < int(off) {
		m.lastSeq = make([]uint32, off)
	} else {
		m.lastSeq = m.lastSeq[:off]
		clear(m.lastSeq)
	}
}

// seqSeen marks a lastSeq slot that holds a sequence number.
const seqSeen = 1 << 16

// duplicate reports whether p repeats the last frame self accepted from
// p.Src, counting it if so, and otherwise records p as that frame. The
// sender's slot is its position in self's neighbor row: only a neighbor's
// frame can reach self, so a Src outside the row means a frame whose Src
// does not name the node that sent it, a caller bug.
func (m *MAC) duplicate(self topology.NodeID, p *packet.Packet) bool {
	slot := m.rxOff[self]
	for _, nb := range m.medium.Net().Neighbors(self) {
		if int32(nb) == p.Src {
			break
		}
		slot++
	}
	if slot == m.rxOff[self+1] {
		panic(fmt.Sprintf("mac: node %d decoded a frame with Src %d, which is not its neighbor", self, p.Src))
	}
	v := seqSeen | uint32(p.Seq)
	if m.lastSeq[slot] == v {
		m.stats.Duplicates++
		if m.obs != nil {
			m.obs.duplicates.Inc()
		}
		return true
	}
	m.lastSeq[slot] = v
	return false
}

// SetHandler installs the upward delivery callback for a node.
func (m *MAC) SetHandler(id topology.NodeID, h Handler) { m.handlers[id] = h }

// macObs holds the MAC's pre-resolved instrument handles; nil disables
// instrumentation for one pointer check per event.
type macObs struct {
	enqueued   obs.Counter
	sent       obs.Counter
	dropped    obs.Counter
	backoffs   obs.Counter
	retries    obs.Counter
	acksSent   obs.Counter
	duplicates obs.Counter
	queueLen   obs.Histogram
}

// SetObs attaches an instrumentation sink; instruments resolve once here.
func (m *MAC) SetObs(sink *obs.Sink) {
	if sink == nil || sink.Reg == nil {
		m.obs = nil
		return
	}
	m.obs = &macObs{
		enqueued:   sink.Reg.Counter("ipda_mac_enqueued_total", "frames handed to the MAC"),
		sent:       sink.Reg.Counter("ipda_mac_sent_total", "data transmissions put on the air (incl. retransmissions)"),
		dropped:    sink.Reg.Counter("ipda_mac_dropped_total", "frames abandoned after MaxAttempts or RetryLimit"),
		backoffs:   sink.Reg.Counter("ipda_mac_backoffs_total", "busy senses that led to backoff"),
		retries:    sink.Reg.Counter("ipda_mac_retries_total", "unicast retransmissions"),
		acksSent:   sink.Reg.Counter("ipda_mac_acks_sent_total", "link-layer acknowledgements transmitted"),
		duplicates: sink.Reg.Counter("ipda_mac_duplicates_total", "retransmissions suppressed at receivers"),
		queueLen: sink.Reg.Histogram("ipda_mac_queue_depth", "per-node queue depth observed at enqueue, including the frame just queued",
			[]float64{0, 1, 2, 4, 8, 16, 32}),
	}
}

// SetQTrace attaches a query tracer: backoffs, retransmissions, and
// drops are attributed to the span each queued frame carries in its
// trace context, and a traced frame's span is extended to the moment
// the MAC retires it (ACKed, end of broadcast air, or dropped) — the
// per-hop latency a causal trace reports. Reset detaches the tracer.
func (m *MAC) SetQTrace(t *qtrace.Tracer) { m.qt = t }

// Stats returns cumulative counters.
func (m *MAC) Stats() Stats { return m.stats }

// Send enqueues a frame for transmission from src; pkt.Dst selects unicast
// (reliable, ARQ) or packet.Broadcast (fire-and-forget). The frame is
// copied at enqueue — the caller keeps pkt and may reuse it immediately —
// and the MAC assigns the copy's Seq.
func (m *MAC) Send(src topology.NodeID, pkt *packet.Packet) {
	m.stats.Enqueued++
	m.seq[src]++
	f := m.getFrame()
	f.pkt = *pkt
	f.entries = append(f.entries[:0], pkt.Entries...)
	f.pkt.Entries = f.entries
	f.pkt.Seq = m.seq[src]
	f.retries = 0
	m.queues[src].push(f)
	if m.obs != nil {
		m.obs.enqueued.Inc()
		m.obs.queueLen.Observe(float64(m.queues[src].len))
	}
	if !m.busy[src] {
		m.busy[src] = true
		m.scheduleAttempt(src, 0, 0)
	}
}

// scheduleAttempt arms the next carrier-sense attempt for src's queue head.
// Under CSMA the delay is a random backoff drawn from the contention window
// 2^window·MinWindow; under TDMA it is the node's next owned slot boundary
// and consumes no randomness. sense counts busy senses of the current
// transmission attempt (the drop budget is MaxAttempts senses per
// transmission); window is the binary exponential backoff exponent, which
// ARQ retransmissions start elevated without consuming sense budget (and
// which TDMA ignores — a retransmission simply waits for the next slot).
func (m *MAC) scheduleAttempt(src topology.NodeID, sense, window int) {
	var delay eventsim.Time
	if m.cfg.Scheme == SchemeTDMA {
		delay = m.tdmaDelay(src)
	} else {
		w := m.cfg.MinWindow << uint(window)
		if w > m.cfg.MaxWindow || w <= 0 {
			w = m.cfg.MaxWindow
		}
		delay = eventsim.Time(m.rand.Intn(w)+1) * m.cfg.SlotTime
	}
	if m.attemptArmed[src] {
		// Invariant breach fallback: never clobber a pending attempt's slot.
		m.sim.After(delay, func() { m.attempt(src, sense, window) })
		return
	}
	m.attemptArmed[src] = true
	m.attemptSense[src] = sense
	m.attemptWindow[src] = window
	m.sim.After(delay, m.attemptFn[src])
}

// fireAttempt is the prebuilt attempt closure's body: it releases the
// node's argument slot and runs the attempt with the armed arguments.
func (m *MAC) fireAttempt(src topology.NodeID) {
	m.attemptArmed[src] = false
	m.attempt(src, m.attemptSense[src], m.attemptWindow[src])
}

func (m *MAC) attempt(src topology.NodeID, sense, window int) {
	f := m.queues[src].head
	if f == nil {
		m.busy[src] = false
		return
	}
	if m.medium.Busy(src) {
		m.stats.Deferred++
		if m.obs != nil {
			m.obs.backoffs.Inc()
		}
		if m.qt != nil {
			m.qt.AddBackoff(qtrace.Ref(f.pkt.TraceSpan))
		}
		if sense+1 >= m.cfg.MaxAttempts {
			m.stats.Dropped++
			if m.obs != nil {
				m.obs.dropped.Inc()
			}
			if m.qt != nil {
				m.qt.AddDrop(qtrace.Ref(f.pkt.TraceSpan))
			}
			m.dequeue(src)
			return
		}
		m.scheduleAttempt(src, sense+1, window+1)
		return
	}
	m.txbuf[src] = f.pkt.AppendEncode(m.txbuf[src][:0])
	size := f.pkt.Size()
	m.medium.Transmit(src, f.pkt.Dst, m.txbuf[src], size)
	m.stats.Sent++
	if m.obs != nil {
		m.obs.sent.Inc()
	}
	air := m.medium.Duration(size)
	if f.pkt.Dst == packet.Broadcast {
		m.sim.After(air, m.deqFn[src])
		return
	}
	// Reliable unicast: wait data airtime + SIFS + ACK airtime + guard.
	m.waiting[src] = true
	m.awaiting[src] = f.pkt.Seq
	m.acked[src] = false
	ackAir := m.medium.Duration((&packet.Packet{Header: packet.Header{Kind: packet.KindAck}}).Size())
	timeout := air + m.cfg.SIFS + ackAir + 4*m.cfg.SlotTime
	m.sim.After(timeout, m.checkAckFn[src])
}

// checkAck resolves the ARQ wait for src's in-service frame. The frame is
// the queue head: nothing dequeues while the node waits for an ACK and
// Send only appends, so the head cannot move between the transmission and
// this timeout.
func (m *MAC) checkAck(src topology.NodeID) {
	m.waiting[src] = false
	if m.acked[src] {
		m.dequeue(src)
		return
	}
	f := m.queues[src].head
	if f == nil {
		m.busy[src] = false
		return
	}
	f.retries++
	if f.retries > m.cfg.RetryLimit {
		m.stats.Dropped++
		if m.obs != nil {
			m.obs.dropped.Inc()
		}
		if m.qt != nil {
			m.qt.AddDrop(qtrace.Ref(f.pkt.TraceSpan))
		}
		m.dequeue(src)
		return
	}
	m.stats.Retries++
	if m.obs != nil {
		m.obs.retries.Inc()
	}
	if m.qt != nil {
		m.qt.AddRetry(qtrace.Ref(f.pkt.TraceSpan))
	}
	// A retransmission backs off from an elevated contention window but is
	// a fresh transmission attempt: its carrier-sense budget restarts at
	// MaxAttempts rather than inheriting the retry count as spent senses.
	window := f.retries
	if window > 5 {
		window = 5
	}
	m.scheduleAttempt(src, 0, window)
}

// dequeue retires src's in-service frame. Every resolution path of a
// frame funnels through here — broadcast end-of-air, ACKed unicast,
// and both drop paths — so this is the single point that closes the
// frame's causal span at the retirement time.
func (m *MAC) dequeue(src topology.NodeID) {
	q := &m.queues[src]
	if q.head != nil {
		f := q.pop()
		if m.qt != nil {
			m.qt.End(qtrace.Ref(f.pkt.TraceSpan), float64(m.sim.Now()))
		}
		m.putFrame(f)
	}
	if q.head != nil {
		m.scheduleAttempt(src, 0, 0)
	} else {
		m.busy[src] = false
	}
}

// onBatch handles one frame for every node that decoded it, in the
// medium's deterministic neighbor order. The frame decodes ONCE into the
// shared scratch packet; each receiver then runs the same per-node state
// machine the per-receiver path ran — ACK matching, ACK generation,
// duplicate suppression, upward delivery — against the shared view. For a
// broadcast heard by d nodes this removes d−1 decodes from the hot path
// without reordering any observable effect: handlers fire in the same
// relative order and only ever schedule strictly-future events.
func (m *MAC) onBatch(frame []byte, to []topology.NodeID) {
	p := &m.rxScratch
	if err := packet.DecodeFrame(p, frame); err != nil {
		return
	}
	if p.Kind == packet.KindAck {
		for _, self := range to {
			if m.waiting[self] && p.Seq == m.awaiting[self] {
				m.acked[self] = true
			}
		}
		return
	}
	// Unicast non-coalesced frames stage exactly one receiver — the
	// addressed destination — so the dominant point-to-point traffic runs
	// the delivery body directly instead of paying a loop plus an outlined
	// call per frame.
	if len(to) == 1 && p.Dst == int32(to[0]) {
		m.deliverUnicast(to[0], p)
		return
	}
	for _, self := range to {
		m.deliver(self, p)
	}
}

// deliverUnicast is deliver specialized for the addressed destination of a
// point-to-point frame: the Dst checks inside deliver are foregone
// conclusions here. Behavior is identical.
func (m *MAC) deliverUnicast(self topology.NodeID, p *packet.Packet) {
	ackDst, ackSeq := p.Src, p.Seq
	if m.ackArmed[self] {
		m.sim.After(m.cfg.SIFS, func() { m.sendAck(self, ackDst, ackSeq) })
	} else {
		m.ackArmed[self] = true
		m.ackDst[self] = ackDst
		m.ackSeq[self] = ackSeq
		m.sim.After(m.cfg.SIFS, m.ackFn[self])
	}
	if m.duplicate(self, p) {
		return
	}
	if h := m.handlers[self]; h != nil {
		h(self, p)
	}
}

// deliver runs one receiver's share of a decoded frame: ACK scheduling
// when this node is the addressed destination, duplicate suppression for
// any non-broadcast reception (coalesced frames reach non-anchor nodes
// promiscuously and retransmissions must not double-deliver there either),
// and the upward handler call. The whole path costs no allocation.
func (m *MAC) deliver(self topology.NodeID, p *packet.Packet) {
	if p.Dst == int32(self) {
		// Acknowledge one SIFS later if the radio is free; a suppressed
		// ACK just means the sender retransmits. At most one ACK can be
		// pending per node — two decodes cannot complete within one SIFS of
		// each other (overlapping frames collide) — so the prebuilt closure
		// slot applies, with the same one-off fallback as scheduleAttempt.
		ackDst, ackSeq := p.Src, p.Seq
		if m.ackArmed[self] {
			m.sim.After(m.cfg.SIFS, func() { m.sendAck(self, ackDst, ackSeq) })
		} else {
			m.ackArmed[self] = true
			m.ackDst[self] = ackDst
			m.ackSeq[self] = ackSeq
			m.sim.After(m.cfg.SIFS, m.ackFn[self])
		}
	}
	if p.Dst != packet.Broadcast && m.duplicate(self, p) {
		return
	}
	if h := m.handlers[self]; h != nil {
		h(self, p)
	}
}

// fireAck is the prebuilt ACK closure's body.
func (m *MAC) fireAck(self topology.NodeID) {
	m.ackArmed[self] = false
	m.sendAck(self, m.ackDst[self], m.ackSeq[self])
}

func (m *MAC) sendAck(self topology.NodeID, ackDst int32, ackSeq uint16) {
	if m.medium.Busy(self) {
		return
	}
	ack := packet.Packet{Header: packet.Header{
		Kind: packet.KindAck,
		Src:  int32(self),
		Dst:  ackDst,
		Seq:  ackSeq,
	}}
	m.ackbuf[self] = ack.AppendEncode(m.ackbuf[self][:0])
	m.medium.Transmit(self, ack.Dst, m.ackbuf[self], ack.Size())
	m.stats.AcksSent++
	if m.obs != nil {
		m.obs.acksSent.Inc()
	}
}
