package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"freemeasure/internal/chaos"
	"freemeasure/internal/control"
	"freemeasure/internal/vm"
	"freemeasure/internal/vttif"
)

// The auto-adapt tests drive the loop from a manually advanced clock:
// every tick and the hold-down window run on fake time, so nothing here
// sleeps through an evaluation period and the damping assertions are
// exact instead of racy. Only the Wren measurement warm-up (real traffic
// over the in-process overlay) still waits on wall time.

// tick advances the fake clock one period and waits for the loop to
// finish that evaluation, returning the cycle it ran — ok is false when
// the tick fell inside the hold-down and no cycle ran.
func tick(t *testing.T, clk *chaos.FakeClock, every time.Duration, a *AutoAdapter, s *System) (res control.CycleResult, ok bool) {
	t.Helper()
	before := a.Stats()
	last, _ := s.Controller().LastCycle()
	clk.Advance(every)
	waitFor(t, "the tick's evaluation", 45*time.Second, func() bool {
		return a.Stats().Evaluations > before.Evaluations
	})
	res, _ = s.Controller().LastCycle()
	return res, res.Cycle != last.Cycle
}

func TestAutoAdaptMigratesAndDamps(t *testing.T) {
	s, _, v2 := slowHostSystem(t)
	const every = 200 * time.Millisecond
	clk := chaos.NewFakeClock()
	a := s.StartAutoAdapt(AutoAdaptConfig{
		Every:    every,
		HoldDown: 10 * time.Second, // fake time: no second shot below
		Clock:    clk,
	})
	defer a.Stop()

	var applied control.CycleResult
	for deadline := time.Now().Add(45 * time.Second); !applied.Applied; {
		if time.Now().After(deadline) {
			t.Fatalf("no plan applied (stats %+v)", a.Stats())
		}
		applied, _ = tick(t, clk, every, a, s)
	}
	if moved := migrations(applied.Plan); !slices.Contains(moved, v2.MAC()) {
		t.Fatalf("applied plan migrates %v, not VM2: %v", moved, applied.Plan.Steps)
	}
	if v2.Daemon().Name() == "slowhost" {
		t.Fatal("VM2 still on the slow host after the applied cycle")
	}

	// Hold-down: tick through several periods of fake time — all inside
	// the 10 s hold-down window — and the loop must evaluate without
	// running, let alone applying, another cycle.
	before := a.Stats()
	for i := 0; i < 6; i++ {
		if res, ran := tick(t, clk, every, a, s); ran {
			t.Fatalf("cycle %d ran inside the hold-down: %s", res.Cycle, res.Summary())
		}
	}
	after := a.Stats()
	if after.Evaluations < before.Evaluations+5 || after.Applied != before.Applied {
		t.Fatalf("hold-down violated: %+v -> %+v", before, after)
	}
}

func TestAutoAdaptSkipsWhenAlreadyGood(t *testing.T) {
	s := newTestSystem(t, []string{"h1", "h2"})
	v1, _ := s.AddVM(1, "h1")
	v2, _ := s.AddVM(2, "h2")
	chatter(t, 20<<10, [2]*vm.VM{v1, v2})
	const every = 100 * time.Millisecond
	clk := chaos.NewFakeClock()
	a := s.StartAutoAdapt(AutoAdaptConfig{Every: every, Clock: clk})
	defer a.Stop()
	// Routing the demand is the only thing there is to do: no cycle may
	// migrate, and the loop must settle into declining to act.
	settled := 0
	for deadline := time.Now().Add(45 * time.Second); settled < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("loop never settled (stats %+v)", a.Stats())
		}
		res, ran := tick(t, clk, every, a, s)
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
	if st := a.Stats(); st.Skipped < 2 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want the settled cycles counted as skips", st)
	}
}

// TestAutoAdaptStopIsClean: Stop neither hangs nor panics, and after Stop
// and Close every goroutine the system started — the loop, the reporters,
// the daemons' link readers and batchers — is gone.
func TestAutoAdaptStopIsClean(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := NewSystem(Config{
		Hosts:       []string{"h1", "h2"},
		ReportEvery: 50 * time.Millisecond,
		VTTIF:       vttif.Config{Alpha: 0.6, HoldUpdates: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s.AddVM(1, "h1")
	v2, _ := s.AddVM(2, "h2")
	v1.Send(v2, 8<<10)
	const every = 50 * time.Millisecond
	clk := chaos.NewFakeClock()
	a := s.StartAutoAdapt(AutoAdaptConfig{Every: every, Clock: clk})
	tick(t, clk, every, a, s)
	a.Stop()
	s.Close()
	if st := a.Stats(); st.Evaluations == 0 || st.Evaluations != st.Applied+st.Skipped+st.Errors {
		t.Fatalf("stats = %+v, want every evaluation accounted for", st)
	}
	waitFor(t, "goroutines to drain to the pre-NewSystem baseline", 10*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}
