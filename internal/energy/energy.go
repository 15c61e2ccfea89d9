// Package energy models per-node energy consumption — the resource the
// paper's introduction says aggregation exists to save ("save resource
// consumptions and increase the [lifetime] of WSNs").
//
// The model is the standard first-order radio model (Heinzelman et al.):
// transmitting b bytes costs b·(Etx + Eamp·r²) and receiving costs b·Erx,
// with the amplifier term fixed here because the simulator uses a fixed
// transmission range. Listening costs are charged per second of simulated
// time at a duty-cycled idle rate. The absolute joule figures are
// conventional textbook constants; what the lifetime experiments compare
// is relative drain across protocols, which the model preserves.
package energy

import (
	"fmt"

	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/topology"
)

// Model are the per-node radio energy parameters, in joules.
type Model struct {
	TxPerByte  float64 // energy to transmit one byte (incl. amplifier)
	RxPerByte  float64 // energy to receive one byte
	IdlePerSec float64 // duty-cycled listening cost per simulated second
}

// DefaultModel returns textbook first-order-radio constants: 1 µJ/byte
// transmit at 50 m, 0.4 µJ/byte receive and 30 µW duty-cycled idle.
func DefaultModel() Model {
	return Model{
		TxPerByte:  1.0e-6,
		RxPerByte:  0.4e-6,
		IdlePerSec: 30e-6,
	}
}

// Validate reports parameter errors.
func (m Model) Validate() error {
	if m.TxPerByte <= 0 || m.RxPerByte <= 0 || m.IdlePerSec < 0 {
		return fmt.Errorf("energy: parameters must be positive (idle may be zero)")
	}
	return nil
}

// Meter tracks the charge of every node in one network.
type Meter struct {
	model Model
	spent []float64
	obs   *meterObs
}

// meterObs holds the meter's pre-resolved per-component joule counters;
// nil disables instrumentation for one pointer check per charge.
type meterObs struct {
	tx, rx, idle obs.Counter
}

// SetObs attaches an instrumentation sink: every charge also feeds a
// network-wide joules counter labeled by radio component.
func (m *Meter) SetObs(sink *obs.Sink) {
	if sink == nil || sink.Reg == nil {
		m.obs = nil
		return
	}
	const name = "ipda_energy_joules_total"
	const help = "network-wide radio energy consumed, by component"
	m.obs = &meterObs{
		tx:   sink.Reg.Counter(name, help, obs.Label{Name: "component", Value: "tx"}),
		rx:   sink.Reg.Counter(name, help, obs.Label{Name: "component", Value: "rx"}),
		idle: sink.Reg.Counter(name, help, obs.Label{Name: "component", Value: "idle"}),
	}
}

// NewMeter creates a meter for n nodes.
func NewMeter(n int, model Model) (*Meter, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Meter{model: model, spent: make([]float64, n)}, nil
}

// ChargeTx charges node id for transmitting size bytes.
func (m *Meter) ChargeTx(id topology.NodeID, size int) {
	cost := float64(size) * m.model.TxPerByte
	m.spent[id] += cost
	if m.obs != nil {
		m.obs.tx.Add(cost)
	}
}

// ChargeRx charges node id for receiving size bytes.
func (m *Meter) ChargeRx(id topology.NodeID, size int) {
	cost := float64(size) * m.model.RxPerByte
	m.spent[id] += cost
	if m.obs != nil {
		m.obs.rx.Add(cost)
	}
}

// ChargeIdle charges every node for dt seconds of duty-cycled listening.
func (m *Meter) ChargeIdle(dt float64) {
	cost := dt * m.model.IdlePerSec
	for i := range m.spent {
		m.spent[i] += cost
	}
	if m.obs != nil {
		m.obs.idle.Add(cost * float64(len(m.spent)))
	}
}

// TotalSpent returns the network-wide energy consumed, excluding the base
// station (node 0), which is mains-powered as is conventional in WSN
// lifetime studies.
func (m *Meter) TotalSpent() float64 {
	var s float64
	for i := 1; i < len(m.spent); i++ {
		s += m.spent[i]
	}
	return s
}

// MaxSpent returns the highest per-node consumption (excluding the base
// station) — the lifetime bottleneck.
func (m *Meter) MaxSpent() float64 {
	var worst float64
	for i := 1; i < len(m.spent); i++ {
		if m.spent[i] > worst {
			worst = m.spent[i]
		}
	}
	return worst
}
