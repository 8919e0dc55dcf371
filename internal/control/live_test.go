package control

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/topology"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// The tests in this file run the whole loop on a live star, wired the way
// examples/overlay wires it: vnet.NewStar with periodic reporting, VMs
// attached to the daemons, a ViewSource over the Proxy's view, and an
// OverlayApplier whose Migrator re-attaches a VM to the target daemon
// (testSystem.migrator).

// liveWren is the daemons' Wren configuration: wall-clock overlay traffic
// is sparser and noisier than simulated kernel traces, so sub-millisecond
// write jitter merges into bursts and trains close after 20 ms of idleness.
var liveWren = wren.Config{Scan: wren.ScanConfig{BurstGap: 1_000_000, MaxGap: 20_000_000}}

// liveStar is a testSystem whose star reports every 50 ms, and the
// controller that adapts it.
type liveStar struct {
	*testSystem
	ctl *Controller
}

// startLiveStar builds and starts a live star over hosts with no VMs.
// Nothing adapts until a cycle is run; the caller closes it.
func startLiveStar(t *testing.T, hosts []string) *liveStar {
	t.Helper()
	o, err := vnet.NewStar(hosts, vttif.Config{Alpha: 0.6, HoldUpdates: 1}, liveWren)
	if err != nil {
		t.Fatal(err)
	}
	s := &liveStar{testSystem: senseStar(o, hosts)}
	s.ctl, err = New(Config{
		Source:  s.source,
		Applier: OverlayApplier{Overlay: o, Migrator: s.migrator()},
	})
	if err != nil {
		o.Close()
		t.Fatal(err)
	}
	o.StartReporting(50 * time.Millisecond)
	return s
}

// newLiveStar is startLiveStar closed at the end of the test.
func newLiveStar(t *testing.T, hosts []string) *liveStar {
	t.Helper()
	s := startLiveStar(t, hosts)
	t.Cleanup(s.overlay.Close)
	return s
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// chatter sends size-byte message bursts (train material for Wren) from
// each VM to the next one named, round and round, until the test ends.
func chatter(t *testing.T, size int, pairs ...[2]*vm.VM) {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan struct{})
	t.Cleanup(func() { close(stop); <-done })
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range pairs {
				p[0].Send(p[1], size)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
}

// demandsSeen reports whether the Proxy's VTTIF view has any traffic yet.
// (Polling with RunCycle instead would drain the delta stream.)
func demandsSeen(s *liveStar) bool { return len(s.overlay.View.Agg.Rates()) > 0 }

// slowHostStar is the end-to-end scenario: two chatty VMs, one of them
// on a host whose physical path is 20x slower, with Wren's view of both
// active legs settled before it returns.
func slowHostStar(t *testing.T) (s *liveStar, v1, v2 *vm.VM) {
	t.Helper()
	s = newLiveStar(t, []string{"fast1", "fast2", "slowhost"})
	// Emulate physical capacities with token buckets on both directions of
	// every proxy link.
	for host, mbps := range map[string]float64{"fast1": 80, "fast2": 80, "slowhost": 4} {
		if l, ok := s.overlay.Node(host).Daemon.Link("proxy"); ok {
			l.SetRateMbps(mbps)
		}
		if l, ok := s.overlay.Proxy.Daemon.Link(host); ok {
			l.SetRateMbps(mbps)
		}
	}
	v1 = s.addVM(1, "fast1")
	v2 = s.addVM(2, "slowhost")
	chatter(t, 60<<10, [2]*vm.VM{v1, v2}, [2]*vm.VM{v2, v1})

	// Wait until the proxy has demand data and a bandwidth view of the
	// slow leg, and the fast leg's estimate has recovered from the first
	// trains' transient underestimate in both directions: an unmeasured
	// path defaults to the optimistic capacity, so planning off that
	// transient makes greedy flee fast1 for the never-measured fast2 and
	// leave VM2 on the slow host. Generous under -race on a loaded CI
	// worker; the wait exits as soon as the condition holds.
	measuredAbove := func(a, b string, floor float64) bool {
		pm, ok := s.overlay.View.Store.Get(coord.Path{From: a, To: b})
		return ok && pm.Mbps > floor
	}
	waitFor(t, "views", 45*time.Second, func() bool {
		slow, ok := s.overlay.View.Store.Get(coord.Path{From: "slowhost", To: "proxy"})
		return demandsSeen(s) && ok && slow.Mbps > 0 && slow.Mbps < 40 &&
			measuredAbove("fast1", "proxy", 20) &&
			measuredAbove("proxy", "fast1", 20)
	})
	return s, v1, v2
}

// migrations lists the VM MACs a plan moves.
func migrations(plan vnet.Plan) (macs []ethernet.MAC) {
	for _, st := range plan.Steps {
		if st.Op == vnet.OpMigrate {
			macs = append(macs, st.MAC)
		}
	}
	return macs
}

func TestSnapshotProblemDefaults(t *testing.T) {
	s := newLiveStar(t, []string{"h1", "h2"})
	s.addVM(1, "h1")
	s.addVM(2, "h2")
	res := s.ctl.RunCycle()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	snap := res.Snapshot
	p := snap.Problem
	if p.Hosts.NumNodes() != 2 || p.NumVMs != 2 || len(snap.VMs) != 2 {
		t.Fatalf("problem shape: hosts=%d vms=%d", p.Hosts.NumNodes(), p.NumVMs)
	}
	if snap.Hosts[snap.Mapping[0]] != "h1" || snap.Hosts[snap.Mapping[1]] != "h2" {
		t.Fatalf("sensed placement = %v over %v", snap.Mapping, snap.Hosts)
	}
	e, _ := p.Hosts.Edge(0, 1)
	if e.BW != 100 || e.Latency != 1 { // defaults until measured
		t.Fatalf("default edge = %+v", e)
	}
	if len(p.Demands) != 0 {
		t.Fatalf("demands before traffic = %v", p.Demands)
	}
}

func TestCycleRequiresTraffic(t *testing.T) {
	s := newLiveStar(t, []string{"h1", "h2"})
	s.addVM(1, "h1")
	s.addVM(2, "h2")
	res := s.ctl.RunCycle()
	if res.Err != nil || res.Applied || res.Reason != "no demands observed" {
		t.Fatalf("cycle without traffic: %s", res.Summary())
	}
	if len(res.Plan.Steps) != 0 || len(res.Result.Steps) != 0 {
		t.Fatalf("cycle without traffic planned %v", res.Plan.Steps)
	}
	for _, n := range s.overlay.Nodes {
		if rules := n.Daemon.Rules(); len(rules) != 0 {
			t.Fatalf("rules on %s without traffic: %v", n.Daemon.Name(), rules)
		}
	}
}

// TestAdaptationMovesVMOffSlowHost is the end-to-end loop: after
// measurement, one controller cycle must plan and apply the migration of
// the VM off the slow host, and traffic keeps flowing afterwards.
func TestAdaptationMovesVMOffSlowHost(t *testing.T) {
	s, v1, v2 := slowHostStar(t)
	res := s.ctl.RunCycle()
	if res.Err != nil || !res.Applied {
		t.Fatalf("cycle: %s", res.Summary())
	}
	if !res.Target.Feasible {
		t.Fatalf("target configuration infeasible: %+v", res.Target)
	}
	var moved bool
	for _, st := range res.Plan.Steps {
		if st.Op == vnet.OpMigrate && st.MAC == v2.MAC() && st.A == "slowhost" && st.B != "slowhost" {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("plan does not migrate VM2 off the slow host: %v", res.Plan.Steps)
	}
	for _, v := range s.vms {
		if v.Daemon().Name() == "slowhost" {
			t.Fatalf("VM %s on the slow host after the cycle", v.MAC())
		}
	}
	// Traffic still flows after migration.
	before := v1.Received()
	waitFor(t, "post-migration traffic", 10*time.Second, func() bool {
		return v1.Received() > before+5
	})
}

// appliedCycle sends traffic from VM1 to VM2 on a healthy three-host
// star and runs cycles until one is applied.
func appliedCycle(t *testing.T) (*liveStar, vnet.Plan) {
	t.Helper()
	s := newLiveStar(t, []string{"h1", "h2", "h3"})
	v1 := s.addVM(1, "h1")
	v2 := s.addVM(2, "h2")
	chatter(t, 30<<10, [2]*vm.VM{v1, v2})
	waitFor(t, "demand", 10*time.Second, func() bool { return demandsSeen(s) })
	res := s.ctl.RunCycle()
	if res.Err != nil || !res.Applied {
		t.Fatalf("first cycle with traffic: %s", res.Summary())
	}
	return s, res.Plan
}

func TestScoreReflectsPlacement(t *testing.T) {
	// Once the first cycle has routed the demand, the placement is healthy
	// and the next cycle must score it as such.
	s, _ := appliedCycle(t)
	res := s.ctl.RunCycle()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Current.Score <= 0 || !res.Current.Feasible {
		t.Fatalf("current = %+v, want positive residual headroom", res.Current)
	}
}

func TestApplyInstallsRules(t *testing.T) {
	s, plan := appliedCycle(t)
	// Every planned rule must now be installed.
	var rules int
	for _, st := range plan.Steps {
		if st.Op != vnet.OpAddRule {
			continue
		}
		rules++
		node := s.overlay.Node(st.Host)
		if node == nil {
			t.Fatalf("rule host %q missing", st.Host)
		}
		if got := node.Daemon.Rules()[st.MAC]; got != st.NextHop {
			t.Fatalf("rule on %s for %s = %q, want %q", st.Host, st.MAC, got, st.NextHop)
		}
	}
	if rules == 0 {
		t.Fatalf("applied plan installs no rules: %v", plan.Steps)
	}
}

// TestDefaultObjective: a Config that names no objective scores
// configurations by residual bandwidth.
func TestDefaultObjective(t *testing.T) {
	s := newLiveStar(t, []string{"h1", "h2"})
	v1 := s.addVM(1, "h1")
	v2 := s.addVM(2, "h2")
	// Report the demand straight into the Proxy's view, under a reporter
	// name no daemon uses so their (empty) reports do not decay it.
	pair := vttif.Pair{Src: v1.MAC(), Dst: v2.MAC()}
	if err := s.overlay.View.Agg.Update("test", map[vttif.Pair]uint64{pair: 1 << 20}, 1); err != nil {
		t.Fatal(err)
	}
	res := s.ctl.RunCycle()
	if res.Err != nil || len(res.Snapshot.Problem.Demands) != 1 {
		t.Fatalf("cycle: %s (demands %v)", res.Summary(), res.Snapshot.Problem.Demands)
	}
	// Nothing is routed before the first plan, so the current configuration
	// is the sensed mapping with the demand unmapped.
	unrouted := &vadapt.Config{Mapping: res.Snapshot.Mapping, Paths: make([]topology.Path, 1)}
	if want := (vadapt.ResidualBW{}).Evaluate(res.Snapshot.Problem, unrouted); res.Current != want {
		t.Fatalf("current = %+v, want the residual-bandwidth evaluation %+v", res.Current, want)
	}
}

// The loop tests drive the controller's Tick with synthetic times: tick k
// is at loopEpoch + k*every and runs synchronously, so the hold-down
// assertions are exact instead of racy and nothing sleeps through an
// evaluation period. Only the Wren measurement warm-up (real traffic over
// the in-process overlay) still waits on wall time.

// loopStats counts ticks the way the loop's callers see them. Evaluations
// counts every tick; ticks inside the hold-down run no cycle, so the rest
// sum to cycles run.
type loopStats struct {
	Evaluations uint64
	Applied     uint64 // cycles whose plan was applied
	Skipped     uint64 // cycles that changed nothing: no demands, no diff, or gated
	Errors      uint64 // cycles whose sense or apply failed
}

// loop ticks a star's controller every period of synthetic time.
type loop struct {
	s     *liveStar
	every time.Duration
	k     int
	stats loopStats
}

var loopEpoch = time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)

// tick advances one period and runs that tick; ran is false when the tick
// fell inside the hold-down and no cycle ran.
func (l *loop) tick() (res CycleResult, ran bool) {
	l.k++
	res, ran = l.s.ctl.Tick(loopEpoch.Add(time.Duration(l.k) * l.every))
	l.stats.Evaluations++
	switch {
	case !ran:
	case res.Err != nil:
		l.stats.Errors++
	case res.Applied:
		l.stats.Applied++
	default:
		l.stats.Skipped++
	}
	return res, ran
}

func TestTickMigratesAndDamps(t *testing.T) {
	s, _, v2 := slowHostStar(t)
	// The hold-down is 2 × the controller's 1 s default Interval: the six
	// ticks below all land inside it.
	a := &loop{s: s, every: 200 * time.Millisecond}

	var applied CycleResult
	for deadline := time.Now().Add(45 * time.Second); !applied.Applied; {
		if time.Now().After(deadline) {
			t.Fatalf("no plan applied (stats %+v)", a.stats)
		}
		applied, _ = a.tick()
	}
	if moved := migrations(applied.Plan); !slices.Contains(moved, v2.MAC()) {
		t.Fatalf("applied plan migrates %v, not VM2: %v", moved, applied.Plan.Steps)
	}
	if v2.Daemon().Name() == "slowhost" {
		t.Fatal("VM2 still on the slow host after the applied cycle")
	}

	// Hold-down: tick through several periods — all inside the hold-down
	// window — and the loop must evaluate without running, let alone
	// applying, another cycle.
	before := a.stats
	for i := 0; i < 6; i++ {
		if res, ran := a.tick(); ran {
			t.Fatalf("cycle %d ran inside the hold-down: %s", res.Cycle, res.Summary())
		}
	}
	after := a.stats
	if after.Evaluations < before.Evaluations+5 || after.Applied != before.Applied {
		t.Fatalf("hold-down violated: %+v -> %+v", before, after)
	}
}

func TestTickSkipsWhenAlreadyGood(t *testing.T) {
	s := newLiveStar(t, []string{"h1", "h2"})
	v1 := s.addVM(1, "h1")
	v2 := s.addVM(2, "h2")
	chatter(t, 20<<10, [2]*vm.VM{v1, v2})
	a := &loop{s: s, every: 100 * time.Millisecond}
	// Routing the demand is the only thing there is to do: no cycle may
	// migrate, and the loop must settle into declining to act.
	settled := 0
	for deadline := time.Now().Add(45 * time.Second); settled < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("loop never settled (stats %+v)", a.stats)
		}
		res, ran := a.tick()
		switch {
		case !ran:
		case res.Err != nil:
			t.Fatalf("cycle failed: %v", res.Err)
		case res.Applied:
			if moved := migrations(res.Plan); len(moved) != 0 {
				t.Fatalf("migrated %v on an already-good placement: %v", moved, res.Plan.Steps)
			}
			settled = 0
		case res.Reason == "no change" || strings.HasPrefix(res.Reason, "gate:"):
			settled++
		}
	}
	if v1.Daemon().Name() != "h1" || v2.Daemon().Name() != "h2" {
		t.Fatalf("placement changed: VM1 on %s, VM2 on %s", v1.Daemon().Name(), v2.Daemon().Name())
	}
	if st := a.stats; st.Skipped < 2 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want the settled cycles counted as skips", st)
	}
}

// TestLoopStopIsClean: Stop neither hangs nor panics, and after Stop and
// Close every goroutine the star started — the loop, the reporters, the
// daemons' link readers and batchers — is gone.
func TestLoopStopIsClean(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := startLiveStar(t, []string{"h1", "h2"})
	v1 := s.addVM(1, "h1")
	v2 := s.addVM(2, "h2")
	v1.Send(v2, 8<<10)
	a := &loop{s: s, every: 50 * time.Millisecond}
	s.ctl.Start()
	a.tick()
	s.ctl.Stop()
	s.overlay.Close()
	if st := a.stats; st.Evaluations == 0 || st.Evaluations != st.Applied+st.Skipped+st.Errors {
		t.Fatalf("stats = %+v, want every evaluation accounted for", st)
	}
	waitFor(t, "goroutines to drain to the pre-start baseline", 10*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}
