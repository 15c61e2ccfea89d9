// Slotted TDMA: a contention-free alternative to CSMA for the dense-field
// regime where exponential backoff dominates round latency.
//
// Slots are assigned by greedy two-hop graph coloring: no node shares a
// slot with any node at radio distance one OR two. Two slot owners are
// therefore more than two hops apart, so no receiver is in range of both:
// data frames that start at their owner's slot boundary and fit within the
// slot never collide with each other, broadcast storms included. The ACK a
// unicast receiver returns one SIFS after the data frame falls inside the
// sender's slot, which is sized to cover a maximum data frame, the SIFS,
// the ACK, and the sender's ARQ timeout guard.
//
// The channel is not collision-free, though: an ACK comes from one hop
// beyond its slot's owner, so it can reach a node that is also receiving
// from a same-slot owner three hops from the ACK's addressee. The
// addressee's ARQ recovers what such an ACK corrupts, but the non-anchor
// targets of a coalesced batch get no retransmission and lose their
// slices (TestTDMAAckCollidesWithCoalescedBatch searches the air of an
// m = 3 field for such a loss).
//
// The assignment is a pure function of the network topology — no rng, no
// tree state — so it is byte-identical across trial workers and shard
// counts.
package mac

import (
	"fmt"
	"math"
	"slices"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/topology"
)

// Scheme selects the channel-access discipline of a MAC instance.
type Scheme uint8

const (
	// SchemeCSMA is nonpersistent CSMA with binary exponential backoff —
	// the paper's contention model and the zero-value default.
	SchemeCSMA Scheme = iota
	// SchemeTDMA is contention-free slotted access from a deterministic
	// two-hop coloring of the network.
	SchemeTDMA
)

// String returns the flag spelling of the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeCSMA:
		return "csma"
	case SchemeTDMA:
		return "tdma"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// ParseScheme parses a -mac flag value.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "csma":
		return SchemeCSMA, nil
	case "tdma", "slotted":
		return SchemeTDMA, nil
	default:
		return 0, fmt.Errorf("mac: unknown scheme %q (want csma or tdma)", name)
	}
}

// slotScratch is the per-MAC working storage of assignSlots, reused across
// Resets so a fresh coloring costs no allocation once the tables reach the
// run's network size.
type slotScratch struct {
	hops  []int             // BFS distances from node 0
	queue []topology.NodeID // BFS queue backing array
	keys  []uint64          // packed (hop rank, id) coloring order
	used  []bool            // colors occupied within two hops
}

// assignSlots two-hop-colors net: the returned table maps each node to a
// slot such that no two nodes within two hops of each other share one.
// Nodes are colored greedily in (hop distance from node 0, id) order —
// BFS order keeps neighborhoods compact, so the greedy choice stays near
// the two-hop-degree lower bound — with unreachable nodes last by id.
// dst is reused when it has capacity, and s is caller-held scratch (see
// resetTDMA).
func assignSlots(net *topology.Network, dst []int32, s *slotScratch) []int32 {
	n := net.N()
	dst = resizeI32(dst, n)
	for i := range dst {
		dst[i] = -1
	}
	s.hops, s.queue = net.HopDistancesInto(0, s.hops, s.queue)
	// The coloring order (hop distance, id) — unreachable nodes last by
	// id — packs into one uint64 key per node: rank in the high half, id
	// in the low, so an ascending sort of plain integers reproduces the
	// comparator exactly with no per-call closure or reflection.
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
	}
	keys := s.keys[:n]
	const unreachableRank = uint64(1) << 31 // above any real hop count
	for i, h := range s.hops {
		rank := unreachableRank
		if h >= 0 {
			rank = uint64(h)
		}
		keys[i] = rank<<32 | uint64(uint32(i))
	}
	slices.Sort(keys)
	if cap(s.used) < n+1 {
		s.used = make([]bool, n+1)
	}
	used := s.used[:n+1]
	for i := range used {
		used[i] = false
	}
	for _, key := range keys {
		id := topology.NodeID(uint32(key))
		maxSeen := int32(-1)
		mark := func(nb topology.NodeID) {
			if c := dst[nb]; c >= 0 {
				used[c] = true
				if c > maxSeen {
					maxSeen = c
				}
			}
		}
		for _, nb := range net.Neighbors(id) {
			mark(nb)
			for _, nb2 := range net.Neighbors(nb) {
				if nb2 != id {
					mark(nb2)
				}
			}
		}
		slot := int32(0)
		for used[slot] {
			slot++
		}
		dst[id] = slot
		for c := int32(0); c <= maxSeen; c++ {
			used[c] = false
		}
		if used[slot] { // slot > maxSeen: clear the probe too
			used[slot] = false
		}
	}
	return dst
}

// tdmaSlotLen returns the slot duration: the largest data frame's airtime,
// the SIFS, the ACK airtime, the sender's 4-slot ARQ guard, and one extra
// SlotTime of margin — so a transmission started at its slot boundary,
// its ACK, and its timeout all resolve inside the slot.
func tdmaSlotLen(m *MAC) eventsim.Time {
	maxSize := 0
	for _, kind := range []packet.Kind{
		packet.KindHello, packet.KindSlice, packet.KindAggregate, packet.KindQuery,
	} {
		if s := (&packet.Packet{Header: packet.Header{Kind: kind}}).Size(); s > maxSize {
			maxSize = s
		}
	}
	if m.cfg.MaxFrameSize > maxSize {
		maxSize = m.cfg.MaxFrameSize
	}
	ackSize := (&packet.Packet{Header: packet.Header{Kind: packet.KindAck}}).Size()
	return m.medium.Duration(maxSize) + m.cfg.SIFS + m.medium.Duration(ackSize) +
		4*m.cfg.SlotTime + m.cfg.SlotTime
}

// resetTDMA derives the slot table for the medium's current network. The
// medium must already be Reset to the run's net (protocol stacks reset
// radio before MAC, and New sees the net it was built over).
func (m *MAC) resetTDMA() {
	m.slot = assignSlots(m.medium.Net(), m.slot, &m.slotScratch)
	m.numSlots = 0
	for _, s := range m.slot {
		if int(s)+1 > m.numSlots {
			m.numSlots = int(s) + 1
		}
	}
	m.slotLen = tdmaSlotLen(m)
}

// tdmaDelay returns the time from now until src's next owned slot
// boundary, always strictly positive so same-instant rescheduling cannot
// spin. No randomness: TDMA scheduling is a pure function of the clock.
func (m *MAC) tdmaDelay(src topology.NodeID) eventsim.Time {
	period := eventsim.Time(m.numSlots) * m.slotLen
	base := eventsim.Time(m.slot[src]) * m.slotLen
	now := m.sim.Now()
	if now > base {
		k := math.Ceil(float64((now - base) / period))
		base += eventsim.Time(k) * period
	}
	for base <= now {
		base += period
	}
	return base - now
}
