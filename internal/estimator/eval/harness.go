package eval

import (
	"fmt"
	"math"
	"sort"

	"freemeasure/internal/chaos"
	"freemeasure/internal/estimator"
	"freemeasure/internal/simnet"
	"freemeasure/internal/tcpsim"
	"freemeasure/internal/wren"
)

// Sample is one scored instant of a run.
type Sample struct {
	T     float64 // seconds
	Truth float64 // ground-truth available bandwidth (Mbit/s)
	Est   float64 // the estimator's belief (0 when Ok is false)
	Ok    bool    // the estimator had an estimate at this instant
}

// RunResult is one (scenario, estimator) evaluation cell.
type RunResult struct {
	Scenario  string
	Estimator string
	Samples   []Sample
	Metrics   EstimatorResult
}

// topo abstracts the two scenario topologies behind what the harness
// needs: the monitored endpoints, the probe sink, and each hop's link and
// router pair.
type topo struct {
	net        *simnet.Network
	src, dst   simnet.HostID
	sink       simnet.HostID
	hopEnds    [][2]simnet.HostID
	crossPairs [][2]simnet.HostID
}

func buildTopo(sim *simnet.Sim, sc Scenario) *topo {
	if len(sc.Hops) == 1 {
		d := simnet.NewDumbbell(sim, 2, 3, simnet.DumbbellConfig{
			AccessMbps:           sc.AccessMbps,
			AccessDelay:          simnet.Milliseconds(0.05),
			BottleneckMbps:       sc.Hops[0].Mbps,
			BottleneckDelay:      simnet.Milliseconds(0.2),
			BottleneckQueueBytes: 64 * 1000,
		})
		return &topo{
			net: d.Net, src: d.Left[0], dst: d.Right[0], sink: d.Right[2],
			hopEnds:    [][2]simnet.HostID{{d.RouterL, d.RouterR}},
			crossPairs: [][2]simnet.HostID{{d.Left[1], d.Right[1]}},
		}
	}
	rates := make([]float64, len(sc.Hops))
	for i, h := range sc.Hops {
		rates[i] = h.Mbps
	}
	p := simnet.NewParkingLot(sim, simnet.ParkingLotConfig{
		AccessMbps:    sc.AccessMbps,
		AccessDelay:   simnet.Milliseconds(0.05),
		HopMbps:       rates,
		HopDelay:      simnet.Milliseconds(0.2),
		HopQueueBytes: 64 * 1000,
	})
	t := &topo{net: p.Net, src: p.Src, dst: p.Dst, sink: p.Sink}
	for i := range sc.Hops {
		t.hopEnds = append(t.hopEnds, [2]simnet.HostID{p.Routers[i], p.Routers[i+1]})
		t.crossPairs = append(t.crossPairs, [2]simnet.HostID{p.CrossSrc[i], p.CrossDst[i]})
	}
	return t
}

// buildRun sets up one scenario's simulated network: the topology, a CBR
// of cross traffic per hop, the monitored application, and a Wren monitor
// capturing on the source host (not yet polled).
func buildRun(sc Scenario, seed int64) (*simnet.Sim, *topo, []*tcpsim.CBR, *wren.Monitor) {
	sim := simnet.NewSim()
	tp := buildTopo(sim, sc)

	// Cross traffic: one CBR per hop on its own endpoint pair.
	crosses := make([]*tcpsim.CBR, len(sc.Hops))
	for i, hop := range sc.Hops {
		crosses[i] = tcpsim.NewCBR(tp.net, simnet.FlowID(90+i), tp.crossPairs[i][0], tp.crossPairs[i][1], 1500)
		for _, st := range hop.Cross {
			crosses[i].SetRateAt(simnet.Time(st.At), st.Mbps)
		}
	}

	// The monitored application: the paper's message workload on a
	// 64 KB-window TCP, looping for the whole run.
	conn := tcpsim.NewConnection(tp.net, 1, tp.src, tp.dst, tcpsim.Config{MaxCwnd: 44})
	tcpsim.StartMessageApp(conn, messagePhases(), 0, -1, seed)

	// Wren watches the source host.
	mon := wren.NewMonitor(wren.HostName(tp.src), wren.Config{
		Estimator: wren.EstimatorConfig{Window: 48, MaxAge: 15_000_000_000},
	})
	wren.AttachSim(mon, tp.net, tp.src)
	return sim, tp, crosses, mon
}

// Run replays one scenario through one registered estimator. The
// simulator is deterministic, so the same (scenario, estimator, seed)
// triple reproduces the identical sample series.
func Run(sc Scenario, estName string, seed int64) (*RunResult, error) {
	est, err := estimator.New(estName, estimator.Config{
		Window:      48,
		MaxAge:      15_000_000_000,
		MinRateMbps: 1,
		MaxRateMbps: sc.maxRate(),
	})
	if err != nil {
		return nil, err
	}
	sim, tp, crosses, mon := buildRun(sc, seed)
	wren.StartPolling(mon, tp.net, simnet.Seconds(0.5))
	// Active estimators measure through their probe driver alone (toward
	// the dedicated sink, so probe sequence space never interleaves with
	// the application flow): every bit of information they gain is paid
	// for in probe bytes, keeping the overhead-vs-accuracy comparison
	// honest. Passive estimators ride the monitor tap.
	var driver *ProbeDriver
	if prober, ok := est.(estimator.Prober); ok {
		driver = NewProbeDriver(tp.net, tp.src, tp.sink, 77, est, prober, simnet.Seconds(0.5))
		driver.Start()
	} else {
		// The tap feeds the estimator every train toward the monitored
		// destination.
		dstName := wren.HostName(tp.dst)
		mon.SetTrainHook(func(remote string, o estimator.Observation) {
			if remote == dstName {
				est.Observe(o)
			}
		})
	}

	// Optional chaos loss episode on the first hop, seeded for replay.
	if ep := sc.Loss; ep != nil {
		fab := chaos.NewSimFabric(tp.net, seed)
		target := fmt.Sprintf("%d<->%d", tp.hopEnds[0][0], tp.hopEnds[0][1])
		tp.net.Schedule(simnet.Time(ep.From), func() {
			clear, err := fab.Inject(chaos.Fault{Kind: chaos.Loss, Rate: ep.Rate}, target)
			if err != nil {
				panic(err)
			}
			tp.net.Schedule(simnet.Time(ep.To), clear)
		})
	}

	res := &RunResult{Scenario: sc.Name, Estimator: estName}
	lastCross := make([]uint64, len(crosses))
	var sample func()
	sample = func() {
		now := sim.Now()
		truth := math.Inf(1)
		for i, hop := range sc.Hops {
			got := crosses[i].Received
			crossMbps := float64(got-lastCross[i]) * 1500 * 8 / sc.SampleEvery.Sec() / 1e6
			lastCross[i] = got
			if free := hop.Mbps - crossMbps; free < truth {
				truth = free
			}
		}
		s := Sample{T: now.Sec(), Truth: truth}
		if e, ok := est.Estimate(int64(now)); ok {
			s.Est = e.Mbps
			s.Ok = true
		}
		res.Samples = append(res.Samples, s)
		if now < simnet.Time(sc.Duration) {
			tp.net.After(sc.SampleEvery, sample)
		}
	}
	tp.net.After(sc.SampleEvery, sample)
	sim.RunUntil(simnet.Time(sc.Duration))

	res.Metrics = score(sc, estName, est.Kind(), res.Samples, driver)
	return res, nil
}

// relErr scores one sample; a missing estimate counts as total error.
func relErr(s Sample) float64 {
	if !s.Ok {
		return 1
	}
	return math.Abs(s.Est-s.Truth) / math.Max(s.Truth, 1)
}

// score aggregates a run's samples into the report metrics.
func score(sc Scenario, name string, kind estimator.Kind, samples []Sample, driver *ProbeDriver) EstimatorResult {
	r := EstimatorResult{Name: name, Kind: kind.String()}
	var errs []float64
	for _, s := range samples {
		if s.T < sc.WarmupSec {
			continue
		}
		errs = append(errs, relErr(s))
	}
	r.Samples = len(errs)
	if len(errs) > 0 {
		sum := 0.0
		for _, e := range errs {
			sum += e
		}
		r.MeanRelErr = round4(sum / float64(len(errs)))
		sorted := append([]float64(nil), errs...)
		sort.Float64s(sorted)
		idx := (len(sorted) * 9) / 10
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		r.P90RelErr = round4(sorted[idx])
	}

	// Convergence: after each ground-truth step, time to the first sample
	// within 25% of truth. The measurement window for a step ends at the
	// next step (or the run's end); a step never reached converges at the
	// full window (the pessimistic bound).
	steps := sc.stepTimes()
	var convSum float64
	for i, st := range steps {
		start := st.Sec()
		if start < sc.WarmupSec && i == 0 {
			start = 0 // the first step measures cold start, warmup included
		}
		end := sc.Duration.Sec()
		if i+1 < len(steps) {
			end = steps[i+1].Sec()
		}
		conv := end - start
		for _, s := range samples {
			if s.T <= start || s.T > end {
				continue
			}
			if relErr(s) <= 0.25 {
				conv = s.T - start
				r.StepsConverged++
				break
			}
		}
		convSum += conv
	}
	r.Steps = len(steps)
	r.MeanConvergenceSec = round4(convSum / float64(len(steps)))

	if driver != nil {
		mbps := float64(driver.BytesSent) * 8 / sc.Duration.Sec() / 1e6
		minHop := math.Inf(1)
		for _, h := range sc.Hops {
			if h.Mbps < minHop {
				minHop = h.Mbps
			}
		}
		r.ProbeMbps = round4(mbps)
		r.ProbeOverheadFrac = round4(mbps / minHop)
		r.Probes = driver.Probes
	}
	if n := len(samples); n > 0 {
		r.FinalMbps = round4(samples[n-1].Est)
		r.FinalTruthMbps = round4(samples[n-1].Truth)
	}
	return r
}

func round4(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return math.Round(v*1e4) / 1e4
}

// messagePhases is the paper's Figure 2 application workload (see
// internal/experiments: bursts of messages, three size phases, then a
// jittered phase), the traffic the passive estimators ride on.
func messagePhases() []tcpsim.MessagePhase {
	return []tcpsim.MessagePhase{
		{Count: 20, Size: 20 << 10, Spacing: simnet.Milliseconds(100)},
		{Count: 10, Size: 50 << 10, Spacing: simnet.Milliseconds(100), Pause: simnet.Seconds(2)},
		{Count: 6, Size: 500 << 10, Spacing: simnet.Milliseconds(100), Pause: simnet.Seconds(2)},
		{Count: 20, Size: 50 << 10, Spacing: simnet.Milliseconds(50),
			SpacingJitter: simnet.Milliseconds(300), Pause: simnet.Seconds(2)},
	}
}
