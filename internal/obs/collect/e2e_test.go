package collect_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"freemeasure/internal/control"
	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/obs/collect"
	"freemeasure/internal/pcap"
	"freemeasure/internal/topology"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

// probingSource wraps a Source so the sense phase fires a traced active
// probe — the way a live mesh's estimators run TTL-1 trains while the
// controller snapshots the view.
type probingSource struct {
	inner control.ProblemSource
	probe func()
}

func (s *probingSource) Snapshot() (*control.Snapshot, error) {
	s.probe()
	return s.inner.Snapshot()
}

// flatten walks the merged span forest into a list.
func flatten(roots []*collect.MeshSpan) []*collect.MeshSpan {
	var out []*collect.MeshSpan
	var walk func(sp *collect.MeshSpan)
	walk = func(sp *collect.MeshSpan) {
		out = append(out, sp)
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// waitForEvent polls a recorder until the named event shows up under the
// trace — the receiving ends of probe trains and report batches record
// asynchronously.
func waitForEvent(t *testing.T, fl *obs.FlightRecorder, trace, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, e := range fl.Events(0) {
			if e.Trace == trace && e.Name == name {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q event under trace %s (events: %+v)", name, trace, fl.Events(0))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMeshTraceEndToEnd is the acceptance path of the whole telemetry
// stack: one controller cycle over a three-proxy mesh must leave
// correlated sense/decide/apply spans on every node the cycle touched —
// controller, plan-step daemons, the probed proxy, and the wren
// repository — all under one trace ID; the collector merges them with
// per-hop latency, Render prints the tree, and the federated metrics view
// carries per-member plus aggregated series with an exemplar linking the
// cycle-latency histogram back to that same trace.
func TestMeshTraceEndToEnd(t *testing.T) {
	proxies := []string{"pa", "pb", "pc"}
	hosts := []string{"h1", "h2", "h3"}
	o, err := vnet.NewMesh(proxies, hosts, vttif.Config{}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)

	// Every mesh member gets its own flight recorder, as vnetd would.
	recs := make(map[string]*obs.FlightRecorder)
	for _, name := range append(append([]string{}, proxies...), hosts...) {
		fl := obs.NewFlightRecorder(0)
		o.Member(name).Daemon.SetFlight(fl)
		recs[name] = fl
	}
	ctlFl := obs.NewFlightRecorder(0)
	repoFl := obs.NewFlightRecorder(0)

	// A wren repository with a forwarder on h1: the cycle's trace context
	// is stamped on the reporting stream via the controller's TraceSink.
	repo := wren.NewRepository(wren.Config{})
	repo.SetFlight(repoFl)
	repoAddr, err := repo.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(repo.Close)
	fw, err := wren.DialRepository(repoAddr, "h1", 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close() })
	fw.SetFlight(recs["h1"])

	// Two demands on distinct host pairs, each with a fast direct edge.
	// Edge widths and demand rates are strictly ordered so the greedy
	// mapping deterministically reproduces the current placement: the plan
	// is pure add-link/add-rule work landing on two different daemons (h1
	// and h3), no migration.
	g := topology.Complete(3, func(a, b topology.NodeID) (float64, float64) {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		switch {
		case lo == 0 && hi == 1:
			return 100, 1
		case lo == 1 && hi == 2:
			return 90, 1
		default:
			return 10, 1
		}
	})
	for i, h := range hosts {
		g.SetName(topology.NodeID(i), h)
	}
	snap := &control.Snapshot{
		Problem: &vadapt.Problem{Hosts: g, NumVMs: 3,
			Demands: []vadapt.Demand{{Src: 0, Dst: 1, Rate: 6}, {Src: 2, Dst: 1, Rate: 5}}},
		Hosts:   hosts,
		VMs:     []ethernet.MAC{ethernet.VMMAC(0), ethernet.VMMAC(1), ethernet.VMMAC(2)},
		Mapping: []topology.NodeID{0, 1, 2},
	}

	h1 := o.Member("h1").Daemon
	home := h1.DefaultRoute() // h1's home proxy on the ring
	if home == "" {
		t.Fatal("h1 has no home proxy")
	}
	var cycleCtx obs.TraceContext
	src := &probingSource{
		inner: &control.StaticSource{Snap: snap},
		probe: func() {
			// The cycle's active measurement leg: a traced TTL-1 train from
			// h1 to its home proxy...
			if err := h1.ProbeCtx(cycleCtx, home, 50, 4, 600); err != nil {
				t.Errorf("probe: %v", err)
			}
			// ...and a traced wren report batch from the same node.
			for i := 0; i < 4; i++ {
				fw.FeedAll([]pcap.Record{{
					At:   time.Now().UnixNano(),
					Dir:  pcap.Out,
					Flow: pcap.FlowKey{Local: "h1", Remote: "h2"},
					Size: 1500, Seq: int64(i * 1448), Len: 1448,
				}})
			}
			if err := fw.Flush(); err != nil {
				t.Errorf("flush: %v", err)
			}
		},
	}

	ctlReg := obs.NewRegistry()
	c, err := control.New(control.Config{
		Source:  src,
		Applier: control.OverlayApplier{Overlay: o},
		Metrics: control.NewMetrics(ctlReg),
		Flight:  ctlFl,
		TraceSink: func(ctx obs.TraceContext) {
			cycleCtx = ctx
			fw.SetTrace(ctx)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunCycle()
	if res.Err != nil || !res.Applied {
		t.Fatalf("cycle: %s", res.Summary())
	}
	if res.Trace == "" || !cycleCtx.Valid() || cycleCtx.TraceID != res.Trace {
		t.Fatalf("trace sink got %+v, cycle trace %q", cycleCtx, res.Trace)
	}

	// Remote ends record asynchronously; wait for them before merging.
	waitForEvent(t, recs[home], res.Trace, "probe-arrival")
	waitForEvent(t, repoFl, res.Trace, "report-ingest")

	// Merge the trace across every member of the mesh.
	col := collect.New(collect.RecorderSource("ctl", ctlFl), collect.RecorderSource("repo", repoFl))
	for name, fl := range recs {
		col.AddSource(collect.RecorderSource(name, fl))
	}
	mt := col.Trace(res.Trace)
	if len(mt.Errors) > 0 {
		t.Fatalf("collection errors: %v", mt.Errors)
	}
	if mt.Spans == 0 || mt.DurationMs <= 0 {
		t.Fatalf("empty merged trace: %+v", mt)
	}

	// Exactly one root: the controller's cycle span.
	if len(mt.Roots) != 1 || mt.Roots[0].Member != "ctl" || mt.Roots[0].Event.Name != "cycle" {
		t.Fatalf("roots = %+v, want the ctl cycle span alone", mt.Roots)
	}

	spans := flatten(mt.Roots)
	find := func(member, name string) *collect.MeshSpan {
		for _, sp := range spans {
			if sp.Member == member && sp.Event.Name == name {
				return sp
			}
		}
		return nil
	}

	// The controller's own phases are all present under the one trace.
	for _, name := range []string{"sense", "decide", "gate", "apply"} {
		if find("ctl", name) == nil {
			t.Errorf("merged trace missing controller %q span", name)
		}
	}

	// Every plan step left a span on the daemon it touched, named after
	// the op — correlated apply work from every involved node.
	stepMembers := make(map[string]bool)
	for _, step := range res.Plan.Steps {
		member := ""
		switch step.Op {
		case vnet.OpAddLink, vnet.OpRemoveLink:
			member = step.A
		case vnet.OpAddRule, vnet.OpRemoveRule:
			member = step.Host
		default:
			t.Fatalf("unexpected plan op %v in %v", step.Op, res.Plan)
		}
		stepMembers[member] = true
		sp := find(member, "step "+step.Op.String())
		if sp == nil {
			t.Errorf("no %q span on %s for plan step %v", "step "+step.Op.String(), member, step)
			continue
		}
		if sp.Event.Phase != "apply" {
			t.Errorf("step span on %s has phase %q, want apply", member, sp.Event.Phase)
		}
	}
	if len(stepMembers) < 2 {
		t.Fatalf("plan %v touched %v, want steps on at least two daemons", res.Plan, stepMembers)
	}

	// The sense leg shows up on both ends of the probed path, with the
	// cross-member hop latency attributed on the receiving side.
	if sp := find("h1", "probe-train"); sp == nil || sp.Event.Phase != "sense" {
		t.Fatalf("probe-train span on h1 = %+v", sp)
	}
	arrival := find(home, "probe-arrival")
	if arrival == nil {
		t.Fatalf("no probe-arrival span on home proxy %s", home)
	}
	if arrival.HopLatencyMs <= 0 {
		t.Errorf("probe-arrival hop latency = %v, want > 0", arrival.HopLatencyMs)
	}

	// The measurement-reporting leg: flush span on h1, ingest on the
	// repository, again with the hop attributed.
	if sp := find("h1", "report-batch"); sp == nil {
		t.Error("no report-batch span on h1")
	}
	ingest := find("repo", "report-ingest")
	if ingest == nil {
		t.Fatal("no report-ingest span on repo")
	}
	if ingest.HopLatencyMs <= 0 {
		t.Errorf("report-ingest hop latency = %v, want > 0", ingest.HopLatencyMs)
	}

	// All involved members are credited in the merged view.
	members := strings.Join(mt.Members, ",")
	for _, want := range []string{"ctl", "h1", "h3", home, "repo"} {
		if !strings.Contains(","+members+",", ","+want+",") {
			t.Errorf("merged trace members %v missing %s", mt.Members, want)
		}
	}

	// The operator rendering (what meshtrace prints) shows the tree.
	var sb strings.Builder
	mt.Render(&sb)
	rendered := sb.String()
	for _, want := range []string{
		"trace " + res.Trace,
		"cycle", "step add-link", "probe-arrival", "report-ingest",
		"[ctl]", "[h1]", "[" + home + "]", "hop ",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, rendered)
		}
	}

	// Federated metrics: per-member series, the mesh aggregate, and an
	// exemplar tying the cycle-latency histogram to this very trace. h1's
	// registry carries the vnet metric set without attaching it to the
	// daemon: SetMetrics must precede Listen/Connect, and NewMesh has long
	// since connected h1's links.
	h1Reg := obs.NewRegistry()
	vnet.NewMetrics(h1Reg)
	fed := collect.NewFederator(
		collect.RegistryMember("ctl", ctlReg),
		collect.RegistryMember("h1", h1Reg),
	)
	sb.Reset()
	fed.Render(&sb)
	metrics := sb.String()
	for _, want := range []string{
		`mesh_member_up{member="ctl"} 1`,
		`mesh_member_up{member="h1"} 1`,
		`control_cycles_total{member="ctl"} 1`,
		`control_cycles_total{member="mesh"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("federated metrics missing %q", want)
		}
	}
	exemplar := regexp.MustCompile(
		`control_cycle_seconds_bucket\{[^}]*member="mesh"[^}]*\} \S+ # \{trace_id="` +
			regexp.QuoteMeta(res.Trace) + `"\}`)
	if !exemplar.MatchString(metrics) {
		t.Errorf("no mesh histogram bucket carries the cycle's exemplar %q:\n%s", res.Trace, metrics)
	}
	if t.Failed() {
		t.Logf("rendered trace:\n%s", rendered)
		t.Logf("merged trace spans: %s", fmt.Sprint(len(spans)))
	}
}
