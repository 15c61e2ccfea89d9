package main

import (
	"fmt"
	"time"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/linksec"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// perLayerDefs lists the metrics a -trace 1 run reports. A layer the
// workload does not reach from the benchmark's side reads 0.
var perLayerDefs = []metricDef{
	{"topology.deploy_ms_p50", "ms"},
	{"tree.phase1_ms_p50", "ms"},
	{"tree.phase1_frames", "count"},
	{"tree.phase1_events", "count"},
	{"tag.trial_ms_p50", "ms"},
	{"core.round_ms_p50", "ms"},
	{"core.round_ms_p99", "ms"},
	{"core.rounds_per_op", "count"},
	{"eventsim.events_per_round", "count"},
	{"eventsim.host_ns_per_event", "ns"},
	{"eventsim.dispatch_ns", "ns"},
	{"radio.frames_per_round", "count"},
	{"radio.collided_per_round", "count"},
	{"radio.delivered_per_frame", "count"},
	{"radio.transmit_ns", "ns"},
	{"mac.sent_per_round", "count"},
	{"mac.retries_per_round", "count"},
	{"mac.deferred_per_round", "count"},
	{"mac.dropped_per_round", "count"},
	{"mac.first_try_ratio", "fraction"},
	{"linksec.slices_per_round", "count"},
	{"linksec.seal_ns_per_slice", "ns"},
	{"linksec.open_ns_per_slice", "ns"},
	{"packet.marshal_ns", "ns"},
	{"packet.unmarshal_ns", "ns"},
	{"stream.step_ms_p50", "ms"},
	{"stream.step_ms_p99", "ms"},
	{"stream.firings_per_epoch", "count"},
	{"stream.overrun_epochs", "count"},
	{"fault.dead_per_round", "count"},
	{"fault.skipped_per_round", "count"},
	{"fault.repaired_per_round", "count"},
	{"shard.plan_ms_p50", "ms"},
	{"shard.runhier_ms_p50", "ms"},
	{"shard.regions", "count"},
	{"harness.trial_ms_p50", "ms"},
	{"harness.trial_ms_p99", "ms"},
	{"harness.worker_busy_ratio", "fraction"},
	{"ledger.eventsim_ms_per_round", "ms"},
	{"ledger.radio_ms_per_round", "ms"},
	{"ledger.linksec_ms_per_round", "ms"},
	{"ledger.packet_ms_per_round", "ms"},
	{"ledger.residual_pct", "%"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"bench.self_pct", "%"},
	{"sim.latency_p50_s", "s"},
	{"sim.latency_tail_s", "s"},
	{"sim.uj_per_reading", "uJ"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics of one traced session.
func perLayer(w *workload, c config, s *session, tr *tracer, st, setup [numSpanNames]*spanStat, cal calibration) map[string]float64 {
	work, fault, faultN, slices := tr.work()
	ops := float64(len(s.rec.ns))
	rounds := float64(work[cRounds])
	perRound := func(k int) float64 { return ratio(float64(work[k]), rounds) }
	// Host time in the calls that run rounds: core.Instance.Run where the
	// benchmark calls it, stream.Pipeline.Step where the pipeline does.
	roundMs := st[spanCoreRun].total + st[spanStep].total
	// Deployment and Phase I run in set-up on some workloads and in every
	// operation on others; their metrics count both.
	deploy := append(st[spanDeploy].durs, setup[spanDeploy].durs...)
	phase1 := append(st[spanPhase1].durs, setup[spanPhase1].durs...)
	phase1N := float64(len(phase1))
	v := map[string]float64{
		"topology.deploy_ms_p50":     quantile(deploy, 0.5),
		"tree.phase1_ms_p50":         quantile(phase1, 0.5),
		"tree.phase1_frames":         ratio(float64(st[spanPhase1].frames+setup[spanPhase1].frames), phase1N),
		"tree.phase1_events":         ratio(float64(st[spanPhase1].events+setup[spanPhase1].events), phase1N),
		"tag.trial_ms_p50":           quantile(st[spanTag].durs, 0.5),
		"core.round_ms_p50":          quantile(st[spanCoreRun].durs, 0.5),
		"core.round_ms_p99":          quantile(st[spanCoreRun].durs, 0.99),
		"core.rounds_per_op":         ratio(rounds, ops),
		"eventsim.events_per_round":  perRound(cEvents),
		"eventsim.host_ns_per_event": ratio(roundMs*1e6, float64(work[cEvents])),
		"eventsim.dispatch_ns":       cal.dispatch,
		"radio.frames_per_round":     perRound(cFrames),
		"radio.collided_per_round":   perRound(cCollided),
		"radio.delivered_per_frame":  ratio(float64(work[cDelivered]), float64(work[cFrames])),
		"radio.transmit_ns":          cal.transmit,
		"mac.sent_per_round":         perRound(cSent),
		"mac.retries_per_round":      perRound(cRetries),
		"mac.deferred_per_round":     perRound(cDeferred),
		"mac.dropped_per_round":      perRound(cDropped),
		"mac.first_try_ratio":        ratio(float64(work[cSent]-work[cRetries]), float64(work[cSent])),
		"linksec.slices_per_round":   ratio(slices, rounds),
		"linksec.seal_ns_per_slice":  cal.seal,
		"linksec.open_ns_per_slice":  cal.open,
		"packet.marshal_ns":          cal.marshal,
		"packet.unmarshal_ns":        cal.unmarshal,
		"stream.step_ms_p50":         quantile(st[spanStep].durs, 0.5),
		"stream.step_ms_p99":         quantile(st[spanStep].durs, 0.99),
		"fault.dead_per_round":       ratio(float64(fault[0]), float64(faultN)),
		"fault.skipped_per_round":    ratio(float64(fault[1]), float64(faultN)),
		"fault.repaired_per_round":   ratio(float64(fault[2]), float64(faultN)),
		"shard.plan_ms_p50":          quantile(st[spanPlan].durs, 0.5),
		"shard.runhier_ms_p50":       quantile(st[spanRunHier].durs, 0.5),
		"runtime.gc_cycles_per_op":   ratio(float64(s.gcCycles), ops),
		"runtime.gc_pause_ms_total":  float64(s.gcPause) / 1e6,
		"runtime.heap_peak_mb":       float64(s.heapPeak) / (1 << 20),
		"bench.self_pct":             100 * ratio(st[spanOp].self, st[spanOp].total),
		"sim.latency_p50_s":          quantile(s.rec.lat, 0.5),
		"sim.latency_tail_s":         quantile(s.rec.lat, w.tail),
	}
	if sweeps := st[spanSweep]; len(sweeps.durs) > 0 {
		// Every op of fig7-sweep is one harness trial.
		v["harness.trial_ms_p50"] = quantile(st[spanOp].durs, 0.5)
		v["harness.trial_ms_p99"] = quantile(st[spanOp].durs, 0.99)
		v["harness.worker_busy_ratio"] = ratio(st[spanOp].total, sweeps.total*float64(c.workers))
	}
	// The ledger models host time per round as counted work times the
	// calibrated cost of one unit; the residual is the share of the measured
	// mean round time it leaves unexplained.
	if rounds > 0 {
		led := map[string]float64{
			"ledger.eventsim_ms_per_round": v["eventsim.events_per_round"] * cal.dispatch / 1e6,
			"ledger.radio_ms_per_round":    v["radio.frames_per_round"] * cal.transmit / 1e6,
			"ledger.linksec_ms_per_round":  v["linksec.slices_per_round"] * (cal.seal + cal.open) / 1e6,
			"ledger.packet_ms_per_round":   v["radio.frames_per_round"] * (cal.marshal + cal.unmarshal) / 1e6,
		}
		measured := roundMs / rounds
		modelled := 0.0
		for k, x := range led {
			v[k] = x
			modelled += x
		}
		v["ledger.residual_pct"] = 100 * (measured - modelled) / measured
	}
	if lr, ok := s.runner.(layerReporter); ok {
		lr.layers(v)
	}
	return v
}

// calibration holds the host cost of one call of each hot public entry
// point, in nanoseconds.
type calibration struct {
	dispatch  float64 // eventsim.Sim.At + Run, per event
	transmit  float64 // radio.Medium.Transmit + drain, per frame, net of event dispatch
	seal      float64 // linksec.CipherCache.SealBatch, per slice
	open      float64 // linksec.CipherCache.OpenBatch, per slice
	marshal   float64 // packet.Packet.AppendEncode
	unmarshal float64 // packet.DecodeFrame
}

// calibrate times each hot call for at least d.
func calibrate(seed uint64, d time.Duration) (calibration, error) {
	var c calibration
	net, err := topology.Random(topology.PaperConfig(400), rng.New(seed).SplitString("calibrate"))
	if err != nil {
		return c, fmt.Errorf("calibration deploy: %w", err)
	}
	c.dispatch = timeDispatch(d)
	c.transmit = timeTransmit(net, c.dispatch, d)
	if c.seal, c.open, err = timeLinksec(net, seed, d); err != nil {
		return c, err
	}
	if c.marshal, c.unmarshal, err = timePacket(d); err != nil {
		return c, err
	}
	return c, nil
}

func timeDispatch(d time.Duration) float64 {
	sim := eventsim.New()
	noop := func() {}
	var events uint64
	start := time.Now()
	for time.Since(start) < d {
		now := sim.Now()
		// Spread times so the heap orders a round-sized pending set.
		for j := range 1024 {
			sim.At(now+eventsim.Time(j%97)*1e-4, noop)
		}
		events += sim.RunAll()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(events)
}

// timeTransmit sends one unicast slice frame at a time from every node of
// an N=400 paper deployment to a neighbor and drains the simulator.
func timeTransmit(net *topology.Network, dispatchNs float64, d time.Duration) float64 {
	sim := eventsim.New()
	m := radio.New(sim, net, radio.PaperRate)
	m.SetBatchReceiver(func([]byte, []topology.NodeID) {})
	p := &packet.Packet{Header: packet.Header{Kind: packet.KindSlice}}
	frame, size := p.Marshal(), p.Size()
	var frames, events uint64
	start := time.Now()
	for time.Since(start) < d {
		for src := 1; src < net.N(); src++ {
			nb := net.Neighbors(topology.NodeID(src))
			if len(nb) == 0 {
				continue
			}
			m.Transmit(topology.NodeID(src), int32(nb[0]), frame, size)
			events += sim.RunAll()
			frames++
		}
	}
	total := float64(time.Since(start).Nanoseconds())
	return (total - float64(events)*dispatchNs) / float64(frames)
}

// timeLinksec seals, then opens, l=2 slices for both trees (four per
// node) from every node to its neighbors, one batch per pass over the
// deployment, with a fresh round nonce each pass.
func timeLinksec(net *topology.Network, seed uint64, d time.Duration) (seal, open float64, err error) {
	cc := linksec.NewCipherCache(linksec.NewPairwise(seed), linksec.SuiteAESCTR)
	var seals []linksec.SealReq
	for src := 1; src < net.N(); src++ {
		nb := net.Neighbors(topology.NodeID(src))
		for j := 0; j < 4 && len(nb) > 0; j++ {
			seals = append(seals, linksec.SealReq{Src: topology.NodeID(src), Dst: nb[j%len(nb)], Value: int64(j)})
		}
	}
	opens := make([]linksec.OpenReq, len(seals))
	var sealNs, openNs time.Duration
	var slices int
	for round := uint32(0); sealNs+openNs < d; round++ {
		for i := range seals {
			seals[i].Nonce = round<<8 | uint32(i&3)
		}
		t := time.Now()
		cc.SealBatch(seals)
		sealNs += time.Since(t)
		for i, s := range seals {
			opens[i] = linksec.OpenReq{Src: s.Src, Dst: s.Dst, Sealed: s.Sealed}
		}
		t = time.Now()
		cc.OpenBatch(opens)
		openNs += time.Since(t)
		for i, o := range opens {
			if o.Err != nil || o.Value != seals[i].Value {
				return 0, 0, fmt.Errorf("calibration: slice %d did not round-trip: %v", i, o.Err)
			}
		}
		slices += len(seals)
	}
	return float64(sealNs.Nanoseconds()) / float64(slices), float64(openNs.Nanoseconds()) / float64(slices), nil
}

func timePacket(d time.Duration) (marshal, unmarshal float64, err error) {
	p := &packet.Packet{Header: packet.Header{Kind: packet.KindSlice, Src: 17, Dst: 42, Round: 3}, Nonce: 0x0301, Tag: 0xbeef}
	buf := p.AppendEncode(nil)
	var q packet.Packet
	const batch = 4096
	var encNs, decNs time.Duration
	var n int
	for encNs+decNs < d {
		t := time.Now()
		for range batch {
			buf = p.AppendEncode(buf[:0])
		}
		encNs += time.Since(t)
		t = time.Now()
		for range batch {
			if err := packet.DecodeFrame(&q, buf); err != nil {
				return 0, 0, fmt.Errorf("calibration decode: %w", err)
			}
		}
		decNs += time.Since(t)
		n += batch
	}
	return float64(encNs.Nanoseconds()) / float64(n), float64(decNs.Nanoseconds()) / float64(n), nil
}
