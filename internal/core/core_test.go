package core

import (
	"strings"
	"testing"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/topology"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vsched"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren/coord"
)

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

func newTestSystem(t *testing.T, hosts []string) *System {
	t.Helper()
	s, err := NewSystem(Config{
		Hosts:       hosts,
		ReportEvery: 50 * time.Millisecond,
		VTTIF:       vttif.Config{Alpha: 0.6, HoldUpdates: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
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
func demandsSeen(s *System) bool { return len(s.Overlay().View.Agg.Rates()) > 0 }

// slowHostSystem is the end-to-end scenario: two chatty VMs, one of them
// on a host whose physical path is 20x slower, with Wren's view of both
// active legs settled before it returns.
func slowHostSystem(t *testing.T) (s *System, v1, v2 *vm.VM) {
	t.Helper()
	s = newTestSystem(t, []string{"fast1", "fast2", "slowhost"})
	// Emulate physical capacities with token buckets on both directions of
	// every proxy link.
	for host, mbps := range map[string]float64{"fast1": 80, "fast2": 80, "slowhost": 4} {
		if l, ok := s.Overlay().Node(host).Daemon.Link("proxy"); ok {
			l.SetRateMbps(mbps)
		}
		if l, ok := s.Overlay().Proxy.Daemon.Link(host); ok {
			l.SetRateMbps(mbps)
		}
	}
	v1, err := s.AddVM(1, "fast1")
	if err != nil {
		t.Fatal(err)
	}
	v2, err = s.AddVM(2, "slowhost")
	if err != nil {
		t.Fatal(err)
	}
	chatter(t, 60<<10, [2]*vm.VM{v1, v2}, [2]*vm.VM{v2, v1})

	// Wait until the proxy has demand data and a bandwidth view of the
	// slow leg, and the fast leg's estimate has recovered from the first
	// trains' transient underestimate in both directions: an unmeasured
	// path defaults to the optimistic capacity, so planning off that
	// transient makes greedy flee fast1 for the never-measured fast2 and
	// leave VM2 on the slow host. Generous under -race on a loaded CI
	// worker; the wait exits as soon as the condition holds.
	measuredAbove := func(a, b string, floor float64) bool {
		pm, ok := s.Overlay().View.Store.Get(coord.Path{From: a, To: b})
		return ok && pm.Mbps > floor
	}
	waitFor(t, "views", 45*time.Second, func() bool {
		slow, ok := s.Overlay().View.Store.Get(coord.Path{From: "slowhost", To: "proxy"})
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

func TestAddVMAndLookup(t *testing.T) {
	s := newTestSystem(t, []string{"h1", "h2"})
	v, err := s.AddVM(1, "h1")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.VM(1)
	if !ok || got != v {
		t.Fatal("VM lookup failed")
	}
	if _, err := s.AddVM(1, "h2"); err == nil {
		t.Fatal("duplicate VM accepted")
	}
	if _, err := s.AddVM(2, "ghost"); err == nil {
		t.Fatal("unknown host accepted")
	}
	if len(s.VMs()) != 1 {
		t.Fatalf("VMs = %d", len(s.VMs()))
	}
}

func TestSnapshotProblemDefaults(t *testing.T) {
	s := newTestSystem(t, []string{"h1", "h2"})
	if _, err := s.AddVM(1, "h1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVM(2, "h2"); err != nil {
		t.Fatal(err)
	}
	res := s.Controller().RunCycle()
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
	s := newTestSystem(t, []string{"h1", "h2"})
	s.AddVM(1, "h1")
	s.AddVM(2, "h2")
	res := s.Controller().RunCycle()
	if res.Err != nil || res.Applied || res.Reason != "no demands observed" {
		t.Fatalf("cycle without traffic: %s", res.Summary())
	}
	if len(res.Plan.Steps) != 0 || len(res.Result.Steps) != 0 {
		t.Fatalf("cycle without traffic planned %v", res.Plan.Steps)
	}
	for _, n := range s.Overlay().Nodes {
		if rules := n.Daemon.Rules(); len(rules) != 0 {
			t.Fatalf("rules on %s without traffic: %v", n.Daemon.Name(), rules)
		}
	}
}

// TestAdaptationMovesVMOffSlowHost is the end-to-end loop: after
// measurement, one controller cycle must plan and apply the migration of
// the VM off the slow host, and traffic keeps flowing afterwards.
func TestAdaptationMovesVMOffSlowHost(t *testing.T) {
	s, v1, v2 := slowHostSystem(t)
	res := s.Controller().RunCycle()
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
	for _, v := range s.VMs() {
		if v.Daemon().Name() == "slowhost" {
			t.Fatalf("VM %d on the slow host after the cycle", v.ID())
		}
	}
	// Traffic still flows after migration.
	before := v1.Received()
	waitFor(t, "post-migration traffic", 10*time.Second, func() bool {
		return v1.Received() > before+5
	})
}

// appliedCycle sends traffic from VM1 to VM2 on a healthy three-host
// system and runs cycles until one is applied.
func appliedCycle(t *testing.T) (*System, vnet.Plan) {
	t.Helper()
	s := newTestSystem(t, []string{"h1", "h2", "h3"})
	v1, _ := s.AddVM(1, "h1")
	v2, _ := s.AddVM(2, "h2")
	chatter(t, 30<<10, [2]*vm.VM{v1, v2})
	waitFor(t, "demand", 10*time.Second, func() bool { return demandsSeen(s) })
	res := s.Controller().RunCycle()
	if res.Err != nil || !res.Applied {
		t.Fatalf("first cycle with traffic: %s", res.Summary())
	}
	return s, res.Plan
}

func TestScoreReflectsPlacement(t *testing.T) {
	// Once the first cycle has routed the demand, the placement is healthy
	// and the next cycle must score it as such.
	s, _ := appliedCycle(t)
	res := s.Controller().RunCycle()
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
		node := s.Overlay().Node(st.Host)
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

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Fatal("empty host list accepted")
	}
}

// TestDefaultObjective: a Config that names no objective scores
// configurations by residual bandwidth, and one that sets nothing else
// still reports.
func TestDefaultObjective(t *testing.T) {
	if cfg := (Config{Hosts: []string{"x"}}).withDefaults(); cfg.ReportEvery == 0 || overlayWren.Scan.MaxGap == 0 {
		t.Fatalf("defaults = %+v, Wren %+v", cfg, overlayWren)
	}
	s := newTestSystem(t, []string{"h1", "h2"})
	v1, _ := s.AddVM(1, "h1")
	v2, _ := s.AddVM(2, "h2")
	// Report the demand straight into the Proxy's view, under a reporter
	// name no daemon uses so their (empty) reports do not decay it.
	pair := vttif.Pair{Src: v1.MAC(), Dst: v2.MAC()}
	if err := s.Overlay().View.Agg.Update("test", map[vttif.Pair]uint64{pair: 1 << 20}, 1); err != nil {
		t.Fatal(err)
	}
	res := s.Controller().RunCycle()
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

// TestReservationGatesMigration: a migration to a CPU-full host is refused
// and the refusal is transactional — the link and rule the same plan had
// already installed are rolled back, and both schedulers hold exactly what
// they held.
func TestReservationGatesMigration(t *testing.T) {
	s := newTestSystem(t, []string{"h1", "h2"})
	v1, err := s.AddVM(1, "h1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVM(2, "h2"); err != nil {
		t.Fatal(err)
	}
	// VM1 reserves 60% on h1; a blocker VM reserves 80% on h2 directly.
	resv := vsched.Reservation{Period: 100 * time.Millisecond, Slice: 60 * time.Millisecond}
	if err := s.Reserve(1, resv); err != nil {
		t.Fatal(err)
	}
	h1sched, _ := s.HostScheduler("h1")
	h2sched, _ := s.HostScheduler("h2")
	if err := h2sched.Admit(99, vsched.Reservation{Period: 100 * time.Millisecond, Slice: 80 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	h1, h2 := s.Overlay().Node("h1").Daemon, s.Overlay().Node("h2").Daemon
	plan := vnet.Plan{Steps: []vnet.Step{
		{Op: vnet.OpAddLink, A: "h1", B: "h2"},
		{Op: vnet.OpAddRule, Host: "h2", MAC: v1.MAC(), NextHop: "h1"},
		{Op: vnet.OpMigrate, MAC: v1.MAC(), A: "h1", B: "h2"}, // 0.6+0.8 > 1
	}}
	res, err := s.Overlay().Apply(plan, s)
	if err == nil {
		t.Fatal("migration to CPU-full host was not refused")
	}
	if !strings.Contains(err.Error(), "exceeds capacity") {
		t.Fatalf("refusal = %v, want the scheduler's admission error", err)
	}
	if res.RolledBack != 2 || res.Steps[2].Outcome != vnet.StepFailed {
		t.Fatalf("rolled back %d steps, outcomes %+v; want the link and the rule undone", res.RolledBack, res.Steps)
	}
	if v1.Daemon() != h1 {
		t.Fatal("VM moved despite refused reservation")
	}
	if got, ok := h1sched.Reservation(1); !ok || got != resv {
		t.Fatalf("source scheduler lost the reservation: %v %v", got, ok)
	}
	if _, ok := h2sched.Reservation(1); ok || len(h2sched.VMs()) != 1 {
		t.Fatalf("target scheduler holds %v, want only the blocker", h2sched.VMs())
	}
	if _, ok := h2.Rules()[v1.MAC()]; ok {
		t.Fatal("rule survived the rollback")
	}
	_, l12 := h1.Link("h2")
	_, l21 := h2.Link("h1")
	if l12 || l21 {
		t.Fatal("link survived the rollback")
	}

	// Free the blocker: the same plan now succeeds and the reservation
	// follows the VM.
	h2sched.Revoke(99)
	if res, err = s.Overlay().Apply(plan, s); err != nil || res.Applied != 3 {
		t.Fatalf("re-apply: %v (%+v)", err, res)
	}
	if v1.Daemon() != h2 {
		t.Fatal("VM did not move")
	}
	if got, ok := h2sched.Reservation(1); !ok || got != resv {
		t.Fatal("reservation did not follow the VM")
	}
	if _, ok := h1sched.Reservation(1); ok {
		t.Fatal("old host kept the reservation")
	}
}

// TestMigrateValidation: migrations are addressed by MAC and checked
// against where the VM actually is, so a stale or foreign step fails (and
// rolls its plan back) instead of moving the wrong VM.
func TestMigrateValidation(t *testing.T) {
	s := newTestSystem(t, []string{"h1", "h2"})
	v1, _ := s.AddVM(1, "h1")
	for name, err := range map[string]error{
		"unknown MAC":    s.Migrate(ethernet.VMMAC(7), "h1", "h2"),
		"unknown target": s.Migrate(v1.MAC(), "h1", "ghost"),
		"stale source":   s.Migrate(v1.MAC(), "h2", "h1"),
	} {
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if v1.Daemon().Name() != "h1" {
		t.Fatal("refused migration moved the VM")
	}
	if err := s.Migrate(v1.MAC(), "h1", "h2"); err != nil || v1.Daemon().Name() != "h2" {
		t.Fatalf("valid migration: %v, VM on %s", err, v1.Daemon().Name())
	}
}

func TestReserveValidation(t *testing.T) {
	s := newTestSystem(t, []string{"h1"})
	if err := s.Reserve(42, vsched.Reservation{Period: time.Second, Slice: time.Millisecond}); err == nil {
		t.Fatal("reserve for unknown VM accepted")
	}
}
