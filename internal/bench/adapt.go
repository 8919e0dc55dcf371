package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"freemeasure/internal/control"
	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// adapt_shift: the control plane end to end on the paper's star at paper
// scale (six hosts, four VMs). Each op shifts the application's traffic
// matrix with real frames (untimed), then times what it takes the system
// to notice and act: refresh the published bandwidth map, push every
// host's VTTIF report to the proxy, run one control cycle through apply.
//
// It stays on the single-proxy star on purpose: on NewMesh (2 proxies x 10
// hosts) one VM Announce is a TTL-8 flood storm across the ring and the
// prototype of this workload never finished.

const (
	adaptHosts = 6
	adaptVMs   = 4
	// regimeEvery: every regimeEvery-th op draws a whole new matrix (a
	// regime change: full solve); the others surge one pair x1.6 (warm).
	regimeEvery = 8
	// burstInterval is the period one shift burst stands for: each frame
	// count n becomes a demand of n*1514 B / 10 ms ≈ n*1.2 Mbit/s, which
	// keeps bursts to tens of frames while demands stay comparable to the
	// 20–100 Mbit/s paths and to the gate's 1 Mbit/s absolute floor.
	burstInterval = 10 * time.Millisecond
	putsPerOp     = 6
	// burstTimeout is how long a shift waits for its last frame before it
	// takes the burst for lossy; a whole burst lands within a millisecond.
	burstTimeout = 100 * time.Millisecond
)

type adaptSizes struct {
	warmOps int  // fixed-count warm-up inside setup_s
	ops     int  // measured ops
	probe   bool // traced pass: one probe frame per demanded pair after each applied plan
}

// adaptOpsPerSecond converts -seconds into the fixed op count: one op
// (shift, probe, refresh, report, cycle, and its share of the flood storms
// applied plans set off) averages about 1/128 s on the 2-core reference
// box. The count is split evenly over the run's rounds in whole regime
// periods.
const adaptOpsPerSecond = 128

// adaptRounds is how many times a run builds the system and plays the
// scenario. A round is long (256 ops at the default size) because what an
// op costs on average is set by the dozen plans a round applies; there are
// eight of them because each is one sample of every op (see foldAdapt).
const adaptRounds = 8

// The speed probe (see speedProbe and foldAdapt).
const (
	probeSteps     = 60000
	probeNominalUs = 115.0 // the probe's CPU time on the reference box, undisturbed
	probeWindow    = 8     // a speed reading is the median probe over this many ops either side
)

// adaptScenario seeds everything a control decision can see: the shift
// sequence, the bandwidth updates and the annealer. It is a constant, like
// the host count and the physical network. An applied plan's flood storm
// costs 20–100x the cycle that caused it, and which plans get applied is
// chaotic in these inputs: at a thousand ops a run, CPU per op differed by
// ±20 % between seeds (8.3–12.9 ms) while repeats of one seed agreed within
// 3 %. Every round therefore plays the same scenario, the rounds must take
// the same course op by op, and the run's seed only draws the payload bytes.
const adaptScenario = 2006

func adaptSizesFor(seconds int) adaptSizes {
	perRound := max(1, seconds*adaptOpsPerSecond/adaptRounds/regimeEvery) * regimeEvery
	return adaptSizes{warmOps: 64, ops: perRound}
}

// timedSource and timedApplier are the benchmark's view into a cycle:
// wrappers around the controller's two seams that note how long sense and
// apply took, leaving decide = cycle − sense − apply.
type timedSource struct {
	inner   control.ProblemSource
	startNs int64
	took    time.Duration
}

func (s *timedSource) Snapshot() (*control.Snapshot, error) {
	s.startNs = nowNs()
	snap, err := s.inner.Snapshot()
	s.took = time.Duration(nowNs() - s.startNs)
	return snap, err
}

type timedApplier struct {
	inner   control.Applier
	called  bool
	startNs int64
	took    time.Duration
}

func (a *timedApplier) Apply(plan vnet.Plan) (vnet.ApplyResult, error) {
	a.called = true
	a.startNs = nowNs()
	res, err := a.inner.Apply(plan)
	a.took = time.Duration(nowNs() - a.startNs)
	return res, err
}

// countGate counts events on the system's goroutines and lets the driver
// block until exactly the count it expects has been reached. It blocks on a
// channel, not on a sleep: an idle Go process rounds short sleeps up to the
// netpoller's 1 ms, which made every wait bimodal and left the process
// asleep for most of an op.
type countGate struct {
	n, want atomic.Uint64
	ready   chan struct{} // cap 1: n reached want
}

func newCountGate() countGate { return countGate{ready: make(chan struct{}, 1)} }

func (g *countGate) add() {
	if g.n.Add(1) == g.want.Load() {
		select {
		case g.ready <- struct{}{}:
		default:
		}
	}
}

// arm sets the target to more events than have been counted so far. Call
// it before causing the events.
func (g *countGate) arm(more uint64) {
	g.want.Store(g.n.Load() + more)
	select {
	case <-g.ready: // stale signal from an earlier wait
	default:
	}
}

// wait blocks until the armed count is reached; false after timeout.
func (g *countGate) wait(timeout time.Duration) bool {
	want := g.want.Load()
	t := time.NewTimer(timeout)
	defer t.Stop()
	for g.n.Load() < want {
		select {
		case <-g.ready:
		case <-t.C:
			return g.n.Load() >= want
		}
	}
	return true
}

type adaptSystem struct {
	overlay   *vnet.Overlay
	hosts     []string
	vms       []*vm.VM
	rx        countGate // app frames the VMs received
	reporters []*vnet.Reporter
	ctlMsgs   countGate // control pushes fully handled at the proxy
	plane     *mapPlane
	ctl       *control.Controller
	met       *control.Metrics
	src       *timedSource
	app       *timedApplier

	rng      *rand.Rand
	baseMbps map[coord.Path]float64
	paths    []coord.Path
	frames   [adaptVMs][adaptVMs]int // current matrix, frames per burst
	payload  []byte
	at       int64 // observation timestamp counter for Puts

	st adaptStats
}

// adaptStats accumulates over the ops of one pass (warm-up or measured).
type adaptStats struct {
	ops, failed          int
	applied, skippedGate int64
	warmUs, fullUs       []float64     // t1→t4 by solve mode
	cpu                  time.Duration // t1 → end of the post-apply settle, summed (storms included)
	burstSent, burstRecv uint64
	probeSent, probeLost uint64
	applySteps           int64
	migrations           int64
	flooded, ttlExpired  uint64
	decideWarmMs         []float64 // cycle − sense − apply, by solve mode
	decideFullMs         []float64
	perOp                []adaptOp // one entry per op, in op order
}

// adaptOp is what one op measured. Every round of a run plays the same
// scenario, so entry k of one round and entry k of another are two samples
// of the same piece of program.
type adaptOp struct {
	wallUs, cpuUs float64 // t1 → overlay quiet again after the apply, if there was one
	latUs         float64 // t1 → t4
	probeUs       float64 // the speed probe, timed just before t1
	mode          byte    // 'w' warm solve, 'f' full solve, 0 the cycle did not solve
	applied       bool
}

func (s *adaptSystem) close() {
	s.plane.close()
	s.overlay.Close()
}

func buildAdapt(sz adaptSizes, seed int64, mirrorPath string, tr *Tracer) (*adaptSystem, error) {
	s := &adaptSystem{rng: rand.New(rand.NewSource(adaptScenario)), baseMbps: make(map[coord.Path]float64),
		rx: newCountGate(), ctlMsgs: newCountGate()}

	for i := 1; i <= adaptHosts; i++ {
		s.hosts = append(s.hosts, fmt.Sprintf("h%d", i))
	}
	o, err := vnet.NewStar(s.hosts, vttif.Config{Alpha: 1, HoldUpdates: 1}, wren.Config{})
	if err != nil {
		return nil, fmt.Errorf("build star: %w", err)
	}
	s.overlay = o
	o.Proxy.Daemon.SetControlHandler(func(from string, payload []byte) {
		o.View.HandleControl(from, payload)
		s.ctlMsgs.add()
	})
	plane, err := newMapPlane(mirrorPath)
	if err != nil {
		o.Close()
		return nil, err
	}
	s.plane = plane
	s.payload = make([]byte, ethernet.MaxPayload)
	rand.New(rand.NewSource(seed)).Read(s.payload)
	for i := 0; i < adaptVMs; i++ {
		v := vm.New(i)
		v.OnFrame = func(*ethernet.Frame) { s.rx.add() }
		v.AttachTo(o.Node(s.hosts[i]).Daemon)
		s.vms = append(s.vms, v)
	}
	for _, n := range o.Nodes {
		// Wren:nil — bandwidths reach the controller only through the map,
		// so the sensed problem is the same in every run of a seed.
		s.reporters = append(s.reporters,
			vnet.NewReporter(vnet.Reporting{Daemon: n.Daemon, Peer: "proxy"}, burstInterval))
	}
	// The physical network — which host pairs are fast, which slow — has its
	// own generator so that it does not move when the op count does.
	network := rand.New(rand.NewSource(adaptScenario))
	for _, a := range s.hosts {
		for _, b := range s.hosts {
			if a == b {
				continue
			}
			p := coord.Path{From: a, To: b}
			s.paths = append(s.paths, p)
			s.baseMbps[p] = 20 + 80*network.Float64()
			if err := s.putPath(nil, p, s.baseMbps[p]); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	s.met = control.NewMetrics(obs.NewRegistry())
	s.src = &timedSource{inner: &control.ViewSource{
		View:  o.View,
		Hosts: func() []string { return s.hosts },
		VMs: func() []control.VMInfo {
			out := make([]control.VMInfo, len(s.vms))
			for i, v := range s.vms {
				out[i] = control.VMInfo{MAC: v.MAC(), Host: v.Daemon().Name()}
			}
			return out
		},
		Map: func() *coord.BandwidthMap { return s.plane.cur },
	}}
	s.app = &timedApplier{inner: control.OverlayApplier{Overlay: o, Migrator: vnet.MigratorFunc(s.migrate)}}
	s.ctl, err = control.New(control.Config{
		Source:  s.src,
		Applier: s.app,
		SA:      vadapt.SAConfig{Iterations: 2000, Seed: adaptScenario},
		Warm:    vadapt.WarmConfig{FullEvery: -1},
		Metrics: s.met,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	if !s.settle() {
		s.close()
		return nil, fmt.Errorf("overlay never went quiet after attach")
	}
	for k := 0; k < sz.warmOps; k++ {
		s.op(k, false, tr)
	}
	return s, nil
}

func (s *adaptSystem) migrate(mac ethernet.MAC, from, to string) error {
	target := s.overlay.Node(to)
	if target == nil {
		return fmt.Errorf("unknown host %q", to)
	}
	for _, v := range s.vms {
		if v.MAC() == mac {
			v.AttachTo(target.Daemon)
			return nil
		}
	}
	return fmt.Errorf("unknown vm %s", mac)
}

func (s *adaptSystem) putPath(op *OpTrace, p coord.Path, mbps float64) error {
	s.at++
	return s.plane.put(op, coord.Record{Path: p, At: int64(time.Second) + s.at, Mbps: mbps,
		LatencyMs: 1, Kind: "bench", Quality: 1})
}

// counters sums every daemon's frame counters; two equal readings a sleep
// apart mean nothing moved in between.
func (s *adaptSystem) counters() (all, flooded, ttl uint64) {
	add := func(d *vnet.Daemon) {
		st := d.Stats()
		all += st.FramesFromVMs + st.FramesDelivered + st.FramesForwarded +
			st.FramesFlooded + st.FramesDropped + st.TTLExpired
		flooded += st.FramesFlooded
		ttl += st.TTLExpired
	}
	add(s.overlay.Proxy.Daemon)
	for _, n := range s.overlay.Nodes {
		add(n.Daemon)
	}
	return all, flooded, ttl
}

// settle waits until the summed counters hold still across three
// consecutive 0.5 ms sleeps (bounded at three seconds).
func (s *adaptSystem) settle() bool {
	deadline := time.Now().Add(3 * time.Second)
	last, _, _ := s.counters()
	for still := 0; still < 3; {
		time.Sleep(500 * time.Microsecond)
		cur, _, _ := s.counters()
		if cur == last {
			still++
		} else {
			still, last = 0, cur
		}
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// shift applies op k's seeded change to the matrix, sends the burst and
// blocks until every frame of it has reached its VM. Should frames go
// missing it falls back on settle, so that none is still in flight when the
// timed part starts; ok is false if the overlay never went quiet.
func (s *adaptSystem) shift(k int) (sent uint64, ok bool) {
	if k%regimeEvery == 0 {
		for i := range s.frames {
			for j := range s.frames[i] {
				if demanded(i, j) {
					s.frames[i][j] = 1 + s.rng.Intn(12)
				}
			}
		}
	} else {
		i := s.rng.Intn(adaptVMs)
		j := (i + 1) % adaptVMs
		s.frames[i][j] = (s.frames[i][j]*16 + 9) / 10
	}
	for i := range s.frames {
		for _, n := range s.frames[i] {
			sent += uint64(n)
		}
	}
	s.rx.arm(sent)
	f := ethernet.Frame{Type: ethernet.TypeApp, Payload: s.payload}
	for i, src := range s.vms {
		f.Src = src.MAC()
		d := src.Daemon()
		for j, dst := range s.vms {
			f.Dst = dst.MAC()
			for n := 0; n < s.frames[i][j]; n++ {
				d.InjectFrame(&f)
			}
		}
	}
	return sent, s.rx.wait(burstTimeout) || s.settle()
}

// demanded is the application's communication pattern: a directed ring
// over the four VMs. It is sparse on purpose. Every demanded pair can earn
// a direct link, every extra link adds cycles to the overlay, and a VM
// Announce after a migration floods every cycle until TTL 8 runs out: with
// all twelve pairs demanded one applied plan floods ~150 k frames and
// burns ~1.4 s of CPU; with the ring it is 4–22 k frames and 50–250 ms.
func demanded(i, j int) bool { return j == (i+1)%adaptVMs }

func (s *adaptSystem) received() uint64 { return s.rx.n.Load() }

// vmHosts counts the distinct daemons hosting a VM: exactly that many
// VTTIF reports reach the proxy per round (an empty matrix is not pushed).
func (s *adaptSystem) vmHosts() uint64 {
	seen := make(map[string]bool, adaptVMs)
	for _, v := range s.vms {
		seen[v.Daemon().Name()] = true
	}
	return uint64(len(seen))
}

// reportRound pushes every host's VTTIF report and blocks until the proxy
// has handled exactly the expected number.
func (s *adaptSystem) reportRound() bool {
	s.ctlMsgs.arm(s.vmHosts())
	for _, r := range s.reporters {
		r.ReportOnce()
	}
	return s.ctlMsgs.wait(time.Second)
}

// op runs one shift→adapted cycle. Failures are counted, not returned:
// a failed op is a result, not a harness error.
func (s *adaptSystem) op(k int, probe bool, tr *Tracer) {
	st := &s.st
	st.ops++
	rx0 := s.received()
	sent, ok := s.shift(k)
	if !ok {
		st.failed++
		st.perOp = append(st.perOp, adaptOp{})
		return
	}
	st.burstSent += sent
	st.burstRecv += s.received() - rx0

	_, flood0, ttl0 := s.counters()
	warm0 := s.met.AdaptWarmSeconds.Count()
	full0 := s.met.AdaptFullSeconds.Count()
	s.app.called = false
	probeUs := timedProbe()
	ot := tr.Op()
	cpu0 := cpuNow()
	t1 := nowNs()
	root := ot.Start("bench", "adapt")

	failed := false
	sp := ot.Start("coord", "refresh")
	for n := 0; n < putsPerOp; n++ {
		p := s.paths[s.rng.Intn(len(s.paths))]
		if err := s.putPath(ot, p, s.baseMbps[p]*(0.7+0.6*s.rng.Float64())); err != nil {
			failed = true
		}
	}
	if err := s.plane.refresh(ot); err != nil {
		failed = true
	}
	sp.End()

	sp = ot.Start("vnet", "report")
	if !s.reportRound() {
		failed = true
	}
	sp.End()
	t3 := nowNs()

	sp = ot.Start("control", "cycle")
	res := s.ctl.RunCycle()
	ot.Add("control", "sense", s.src.startNs, s.src.took)
	if s.app.called {
		ot.Add("vnet", "apply", s.app.startNs, s.app.took)
	}
	sp.End()
	t4 := nowNs()
	root.End()
	ot.Finish()

	if res.Err != nil || res.Result.RolledBack > 0 {
		failed = true
	}
	// Only an Apply puts frames on the overlay (link set-up, the moved VM's
	// Announce and the flood it sets off); the op lasts until they are gone.
	settled := !s.app.called || s.settle()
	dcpu := cpuNow() - cpu0
	dwall := time.Duration(nowNs() - t1)
	st.cpu += dcpu
	if !settled {
		failed = true
	}
	if failed {
		st.failed++
	}
	_, flood1, ttl1 := s.counters()
	st.flooded += flood1 - flood0
	st.ttlExpired += ttl1 - ttl0

	totalUs := float64(t4-t1) / 1e3
	cycle := time.Duration(t4 - t3)
	apply := time.Duration(0)
	if s.app.called {
		apply = s.app.took
	}
	decide := ms(cycle - s.src.took - apply)
	rec := adaptOp{wallUs: float64(dwall) / 1e3, cpuUs: float64(dcpu) / 1e3, latUs: totalUs,
		probeUs: probeUs, applied: res.Applied}
	switch {
	case s.met.AdaptFullSeconds.Count() > full0:
		rec.mode = 'f'
		st.fullUs = append(st.fullUs, totalUs)
		st.decideFullMs = append(st.decideFullMs, decide)
	case s.met.AdaptWarmSeconds.Count() > warm0:
		rec.mode = 'w'
		st.warmUs = append(st.warmUs, totalUs)
		st.decideWarmMs = append(st.decideWarmMs, decide)
	}
	st.perOp = append(st.perOp, rec)
	if res.Applied {
		st.applied++
		st.applySteps += int64(res.Result.Applied)
		for _, step := range res.Plan.Steps {
			if step.Op == vnet.OpMigrate {
				st.migrations++
			}
		}
		if probe {
			s.probe()
		}
	} else if !res.GateAllowed && res.Err == nil && res.Reason != "no change" {
		st.skippedGate++
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// probe sends one frame per demanded pair over the just-installed
// configuration and counts the ones that never arrive (ROADMAP item 4's
// no-black-hole invariant, reported rather than gated).
func (s *adaptSystem) probe() {
	rx0 := s.received()
	f := ethernet.Frame{Type: ethernet.TypeApp, Payload: s.payload[:64]}
	var sent uint64
	for i, src := range s.vms {
		for j, dst := range s.vms {
			if s.frames[i][j] == 0 {
				continue
			}
			f.Src, f.Dst = src.MAC(), dst.MAC()
			src.Daemon().InjectFrame(&f)
			sent++
		}
	}
	waitFor(20*time.Millisecond, 100*time.Microsecond, func() bool { return s.received()-rx0 >= sent })
	s.st.probeSent += sent
	s.st.probeLost += sent - min(sent, s.received()-rx0)
	// Probe frames land in VTTIF's local matrices; drain them so the next
	// op's report carries only its own burst.
	for _, n := range s.overlay.Nodes {
		n.Daemon.Traffic().Snapshot()
	}
}

// runAdapt is the end-to-end entry: nRounds plays of the scenario, each on
// a fresh system, folded op by op (see foldAdapt).
func runAdapt(seed int64, sz adaptSizes, nRounds int) (*Result, error) {
	res := &Result{Workload: AdaptShift, Seed: seed, Correct: true, Counts: map[string]int64{}}
	var setup []float64
	var rounds [][]adaptOp
	for round := 0; round < nRounds; round++ {
		t0 := time.Now()
		sys, err := buildAdapt(sz, seed, "", nil)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		if sys.st.failed > 0 {
			res.problem("round %d: %d warm-up ops failed", round, sys.st.failed)
		}
		warmApplied := sys.st.applied
		measureAdapt(sys, sz, res, nil)
		sys.close()
		ops := sys.st.perOp
		if round == 0 {
			res.Counts["warmup_applied_plans_per_round"] = warmApplied
			res.Counts["applied_plans_per_round"] = sys.st.applied
		} else if k := firstDifference(rounds[0], ops); warmApplied != res.Counts["warmup_applied_plans_per_round"] || k >= 0 {
			res.problem("round %d not deterministic: %d plans applied in warm-up (round 0: %d), first op that solved or applied differently: %d",
				round, warmApplied, res.Counts["warmup_applied_plans_per_round"], k)
		}
		rounds = append(rounds, ops)
	}
	foldAdapt(res, rounds)
	res.set("setup_s", "s", goodQuartile(setup, false), len(setup))
	return res, nil
}

// firstDifference is the first op at which two rounds took a different
// course (other solve mode, plan applied in one and not the other), or -1.
func firstDifference(a, b []adaptOp) int {
	for k := range a {
		if k >= len(b) || a[k].mode != b[k].mode || a[k].applied != b[k].applied {
			return k
		}
	}
	return -1
}

// foldAdapt turns the rounds' per-op samples into the run's metrics, in two
// steps that each take out one kind of interference from outside the process.
//
// The CPU under a guest on a shared host does not run at one speed: the
// probe, which executes the same 180 000 register instructions every time,
// read 107–120 µs from one run to the next on the reference box, and an op's
// times moved with it (a warm cycle is a millisecond of annealing: the same
// kind of work). So every time an op measured is first divided by how slowly
// the CPU ran around that op — the median probe over the neighbouring ops,
// over probeNominalUs — which states it at the reference speed. A change to
// the program does not move the probe, so it shows in full.
//
// Then, op k being the same piece of program in every round, it is reduced
// over the rounds to its lower quartile: what is left of the interference
// comes in stretches of seconds and only ever slows an op down, and the
// rounds put seconds between two samples of one op. The reduced ops make the
// run the scenario would have had undisturbed: throughput and CPU are totals
// over all of them, so the full solves (one op in eight) and the flood
// storms applied plans set off (most of the CPU) are in them; the latency
// quantiles are over the warm-solve cycles.
//
// Measured on the reference box, ten runs on ten seeds, quartile spread over
// median: rounds folded as wholes, no probe, 5–13 %; this, 1.5–2 %.
func foldAdapt(res *Result, rounds [][]adaptOp) {
	n := len(rounds[0])
	for _, r := range rounds {
		n = min(n, len(r))
	}
	// slow[r][k] is how slowly the CPU ran around op k of round r: the median
	// probe time over the ops within probeWindow of it, over the nominal.
	slow := make([][]float64, len(rounds))
	win := make([]float64, 0, 2*probeWindow+1)
	for r, ops := range rounds {
		slow[r] = make([]float64, n)
		for k := range slow[r] {
			win = win[:0]
			for _, o := range ops[max(0, k-probeWindow):min(n, k+probeWindow+1)] {
				win = append(win, o.probeUs)
			}
			slow[r][k] = median(win) / probeNominalUs
		}
	}
	col := make([]float64, len(rounds))
	reduce := func(k int, field func(*adaptOp) float64) float64 {
		for r := range rounds {
			col[r] = field(&rounds[r][k]) / slow[r][k]
		}
		return goodQuartile(col, false)
	}
	var wallUs, cpuUs float64
	var lat []float64
	for k := 0; k < n; k++ {
		wallUs += reduce(k, func(o *adaptOp) float64 { return o.wallUs })
		cpuUs += reduce(k, func(o *adaptOp) float64 { return o.cpuUs })
		if rounds[0][k].mode == 'w' {
			lat = append(lat, reduce(k, func(o *adaptOp) float64 { return o.latUs }))
		}
	}
	res.set("ops_per_s", "1/s", float64(n)*1e6/wallUs, n*len(rounds))
	res.set("cpu_us_per_op", "us", cpuUs/float64(n), n*len(rounds))
	res.set("lat_p50_us", "us", quantile(lat, 0.5), len(lat)*len(rounds))
	res.set("lat_p90_us", "us", quantile(lat, 0.9), len(lat)*len(rounds))
}

// measureAdapt runs the measured ops on a warmed system.
func measureAdapt(s *adaptSystem, sz adaptSizes, res *Result, tr *Tracer) {
	s.st = adaptStats{}
	runtime.GC()
	for k := 0; k < sz.ops; k++ {
		s.op(sz.warmOps+k, sz.probe, tr)
	}
	st := &s.st
	res.Attempted += st.ops
	res.Failed += st.failed
	if st.failed > 0 {
		res.problem("%d of %d adapt ops failed (cycle error, rollback, lost report or map)", st.failed, st.ops)
	}
	if s.plane.regressed > 0 {
		res.problem("map generation regressed %d times", s.plane.regressed)
	}
	if len(st.warmUs) == 0 || len(st.fullUs) == 0 {
		res.problem("solve modes not both exercised: %d warm, %d full", len(st.warmUs), len(st.fullUs))
	}
	res.Counts["full_solves"] += int64(len(st.fullUs))
	res.Counts["warm_solves"] += int64(len(st.warmUs))
}

var probeSink uint64 // keeps the compiler from dropping the probe

// timedProbe runs the speed probe and returns the CPU time it took in µs.
// It is CPU time of the thread, not wall time, so that a probe that had to
// wait for a CPU does not read as a slow CPU.
func timedProbe() float64 {
	runtime.LockOSThread()
	t0 := threadCPUNow()
	probeSink += speedProbe()
	d := threadCPUNow() - t0
	runtime.UnlockOSThread()
	return float64(d) / 1e3
}

// speedProbe is a fixed piece of register-only integer work (probeSteps
// steps of xorshift64, no memory touched): how long it takes says how fast
// the CPU under this process is running right now.
func speedProbe() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}
