package chaos

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"freemeasure/internal/obs"
	"freemeasure/internal/simnet"
	"freemeasure/internal/tcpsim"
)

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"good loss", Event{Fault: Fault{Kind: Loss, Rate: 0.05}, Target: "0->1"}, true},
		{"good partition", Event{At: time.Second, Fault: Fault{Kind: Partition}, Target: "0<->1", Duration: time.Second}, true},
		{"negative at", Event{At: -1, Fault: Fault{Kind: Loss}, Target: "0->1"}, false},
		{"negative duration", Event{Duration: -1, Fault: Fault{Kind: Loss}, Target: "0->1"}, false},
		{"empty target", Event{Fault: Fault{Kind: Loss}}, false},
		{"rate one", Event{Fault: Fault{Kind: Loss, Rate: 1}, Target: "0->1"}, false},
		{"negative rate", Event{Fault: Fault{Kind: Duplicate, Rate: -0.1}, Target: "0->1"}, false},
		{"clamp zero", Event{Fault: Fault{Kind: Clamp}, Target: "0->1"}, false},
		{"delay empty", Event{Fault: Fault{Kind: Delay}, Target: "0->1"}, false},
		{"delay jitter only", Event{Fault: Fault{Kind: Delay, Jitter: time.Millisecond}, Target: "0->1"}, true},
		{"unknown kind", Event{Fault: Fault{Kind: "melt"}, Target: "0->1"}, false},
	}
	for _, c := range cases {
		s := Scenario{Events: []Event{c.ev}}
		err := s.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestFakeClockAfter(t *testing.T) {
	c := NewFakeClock()
	start := c.Now()
	ch := c.After(100 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired before any advance")
	default:
	}
	c.Advance(50 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired early")
	default:
	}
	c.Advance(50 * time.Millisecond)
	at := <-ch
	if want := start.Add(100 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	if got := c.Now(); !got.Equal(start.Add(100 * time.Millisecond)) {
		t.Fatalf("Now = %v", got)
	}
}

func TestFakeClockOrdersTimers(t *testing.T) {
	c := NewFakeClock()
	// Registered out of order; one Advance covers both. Each must carry the
	// fake timestamp it came due at, so the early one stamps earlier.
	late := c.After(30 * time.Millisecond)
	early := c.After(10 * time.Millisecond)
	c.Advance(time.Second)
	le, ea := <-late, <-early
	if !ea.Before(le) {
		t.Fatalf("early fired at %v, late at %v — want early < late", ea, le)
	}
	if got := le.Sub(ea); got != 20*time.Millisecond {
		t.Fatalf("stamp spread = %v, want 20ms", got)
	}
}

// stubFabric records injections and clears; targets named "bad" fail.
type stubFabric struct {
	mu    sync.Mutex
	trace []string
}

func (f *stubFabric) Inject(fault Fault, target string) (func(), error) {
	if target == "bad" {
		return nil, fmt.Errorf("no such target")
	}
	f.mu.Lock()
	f.trace = append(f.trace, "inject "+string(fault.Kind)+" "+target)
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		f.trace = append(f.trace, "clear "+string(fault.Kind)+" "+target)
		f.mu.Unlock()
	}, nil
}

func (f *stubFabric) snapshot() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.trace...)
}

func TestRunnerPlayAgainstStubFabric(t *testing.T) {
	fab := &stubFabric{}
	clk := NewFakeClock()
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(0)
	r := &Runner{
		Scenario: Scenario{
			Events: []Event{
				{At: 10 * time.Millisecond, Fault: Fault{Kind: Loss, Rate: 0.1}, Target: "a", Duration: 30 * time.Millisecond},
				{At: 20 * time.Millisecond, Fault: Fault{Kind: Partition}, Target: "b", Duration: 10 * time.Millisecond},
				{At: 25 * time.Millisecond, Fault: Fault{Kind: Outage}, Target: "bad", Duration: 10 * time.Millisecond},
			},
		},
		Fabric:  fab,
		Log:     &Log{},
		Flight:  fr,
		Metrics: NewMetrics(reg),
	}
	done := make(chan error, 1)
	go func() { done <- r.Play(clk, nil) }()
	deadline := time.Now().Add(5 * time.Second)
	for len(r.Log.Lines()) < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out; log so far:\n%s", r.Log.Bytes())
		}
		clk.Advance(5 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("Play: %v", err)
	}
	want := []string{
		"inject loss a",
		"inject partition b",
		"clear partition b",
		"clear loss a",
	}
	if got := fab.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fabric trace = %v, want %v", got, want)
	}
	if v := r.Metrics.Injected.Value(); v != 2 {
		t.Errorf("injected = %d, want 2", v)
	}
	if v := r.Metrics.Cleared.Value(); v != 2 {
		t.Errorf("cleared = %d, want 2", v)
	}
	if v := r.Metrics.Errors.Value(); v != 1 {
		t.Errorf("errors = %d, want 1", v)
	}
	if v := r.Metrics.Active.Value(); v != 0 {
		t.Errorf("active gauge = %v, want 0", v)
	}
	// Flight recorder saw every transition under component "chaos".
	var names []string
	for _, e := range fr.Events(0) {
		if e.Component != "chaos" || e.Phase != "fault" {
			t.Fatalf("stray event %+v", e)
		}
		names = append(names, e.Name)
	}
	wantNames := []string{"fault-injected", "fault-injected", "fault-error", "fault-cleared", "fault-cleared"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("flight events = %v, want %v", names, wantNames)
	}
}

func TestRunnerPlayStopClearsPendingFaults(t *testing.T) {
	fab := &stubFabric{}
	clk := NewFakeClock()
	r := &Runner{
		Scenario: Scenario{
			Events: []Event{
				{At: 0, Fault: Fault{Kind: Partition}, Target: "a", Duration: time.Hour},
				{At: time.Hour, Fault: Fault{Kind: Loss}, Target: "never"},
			},
		},
		Fabric: fab,
		Log:    &Log{},
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- r.Play(clk, stop) }()
	deadline := time.Now().Add(5 * time.Second)
	for len(fab.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first fault never injected")
		}
		clk.Advance(time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("Play: %v", err)
	}
	want := []string{"inject partition a", "clear partition a"}
	if got := fab.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace = %v, want %v (pending fault must clear on stop)", got, want)
	}
}

func TestRunnerScheduleSimRejectsBadScenario(t *testing.T) {
	r := &Runner{Scenario: Scenario{Events: []Event{{Fault: Fault{Kind: "melt"}, Target: "x"}}}, Fabric: &stubFabric{}}
	if err := r.ScheduleSim(simnet.NewSim()); err == nil {
		t.Fatal("ScheduleSim accepted an invalid scenario")
	}
}

// runLossyPair pushes CBR traffic through a seeded 30% loss episode and
// returns the bottleneck link stats.
func runLossyPair(t *testing.T, seed int64) simnet.LinkStats {
	t.Helper()
	sim := simnet.NewSim()
	net, a, b := simnet.NewPair(sim, 10, simnet.Milliseconds(1), 0)
	cbr := tcpsim.NewCBR(net, 1, a, b, 1000)
	cbr.SetRateAt(0, 5)
	r := &Runner{
		Scenario: Scenario{
			Events: []Event{
				{At: time.Second, Fault: Fault{Kind: Loss, Rate: 0.3}, Target: "0->1", Duration: 2 * time.Second},
			},
		},
		Fabric: NewSimFabric(net, seed),
		Log:    &Log{},
	}
	if err := r.ScheduleSim(sim); err != nil {
		t.Fatalf("ScheduleSim: %v", err)
	}
	sim.RunUntil(simnet.Time(simnet.Seconds(5)))
	return net.Link(a, b).Stats()
}

func TestSimFabricLossIsSeededAndDeterministic(t *testing.T) {
	s1 := runLossyPair(t, 42)
	s2 := runLossyPair(t, 42)
	if s1 != s2 {
		t.Fatalf("same seed diverged:\n%+v\n%+v", s1, s2)
	}
	if s1.Lost == 0 {
		t.Fatalf("no losses recorded: %+v", s1)
	}
	if s1.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", s1)
	}
	s3 := runLossyPair(t, 7)
	if s3.Lost == s1.Lost {
		t.Fatalf("different seeds produced identical loss pattern (%d)", s1.Lost)
	}
}

func TestSimFabricPartitionDropsEverythingThenHeals(t *testing.T) {
	sim := simnet.NewSim()
	net, a, b := simnet.NewPair(sim, 10, simnet.Milliseconds(1), 0)
	cbr := tcpsim.NewCBR(net, 1, a, b, 1000)
	cbr.SetRateAt(0, 2)
	fab := NewSimFabric(net, 1)
	r := &Runner{
		Scenario: Scenario{Events: []Event{
			{At: time.Second, Fault: Fault{Kind: Partition}, Target: "0<->1", Duration: time.Second},
		}},
		Fabric: fab, Log: &Log{},
	}
	if err := r.ScheduleSim(sim); err != nil {
		t.Fatalf("ScheduleSim: %v", err)
	}
	var during, after simnet.LinkStats
	sim.Schedule(simnet.Time(simnet.Seconds(1.999)), func() { during = net.Link(a, b).Stats() })
	sim.RunUntil(simnet.Time(simnet.Seconds(4)))
	after = net.Link(a, b).Stats()
	// During the partition every enqueued packet was lost, none delivered
	// beyond what got through in the first second (~250 pkts at 2 Mbit/s).
	if during.Lost == 0 {
		t.Fatalf("partition dropped nothing: %+v", during)
	}
	if after.Delivered <= during.Delivered {
		t.Fatalf("traffic did not resume after heal: during=%+v after=%+v", during, after)
	}
	if after.Lost != during.Lost {
		t.Fatalf("losses continued after heal: during=%d after=%d", during.Lost, after.Lost)
	}
}

func TestSimFabricClampRestoresRate(t *testing.T) {
	sim := simnet.NewSim()
	net, a, b := simnet.NewPair(sim, 100, simnet.Milliseconds(1), 0)
	fab := NewSimFabric(net, 1)
	clear, err := fab.Inject(Fault{Kind: Clamp, Mbps: 5}, "0<->1")
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if got := net.Link(a, b).RateMbps(); got != 5 {
		t.Fatalf("rate during clamp = %v, want 5", got)
	}
	clear()
	if got := net.Link(a, b).RateMbps(); got != 100 {
		t.Fatalf("rate after clear = %v, want 100", got)
	}
	if got := net.Link(b, a).RateMbps(); got != 100 {
		t.Fatalf("reverse rate after clear = %v, want 100", got)
	}
}

func TestSimFabricRejectsUnknownTargets(t *testing.T) {
	sim := simnet.NewSim()
	net, _, _ := simnet.NewPair(sim, 10, simnet.Milliseconds(1), 0)
	fab := NewSimFabric(net, 1)
	for _, target := range []string{"5->9", "junk", "0<->7"} {
		if _, err := fab.Inject(Fault{Kind: Loss, Rate: 0.1}, target); err == nil {
			t.Errorf("Inject(%q) succeeded, want error", target)
		}
	}
	if _, err := fab.Inject(Fault{Kind: StarveFeed}, "0->1"); err == nil {
		t.Error("sim fabric accepted starve-feed, want error")
	}
}
