package chaos

import (
	"fmt"
	"sync"
	"time"

	"freemeasure/internal/obs"
	"freemeasure/internal/simnet"
)

// Fabric applies faults to some substrate. Inject puts f into effect on
// target and returns the function that clears it; unsupported kinds or
// unknown targets return an error.
type Fabric interface {
	Inject(f Fault, target string) (clear func(), err error)
}

// Log is the deterministic record of one run: an ordered list of
// apply/clear lines stamped with scenario-relative times. On a
// deterministic fabric two runs of the same scenario and seed produce
// byte-for-byte identical logs — the replayability artifact the chaos
// suite asserts on.
type Log struct {
	mu    sync.Mutex
	lines []string
}

// Addf appends one formatted line.
func (l *Log) Addf(format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// Lines returns a copy of the recorded lines.
func (l *Log) Lines() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// Bytes renders the log as newline-joined bytes for equality checks.
func (l *Log) Bytes() []byte {
	var out []byte
	for _, ln := range l.Lines() {
		out = append(out, ln...)
		out = append(out, '\n')
	}
	return out
}

// Runner plays a Scenario against a Fabric, recording every fault
// application and clearance in the Log, the flight recorder (component
// "chaos"), and the metrics.
type Runner struct {
	Scenario Scenario
	Fabric   Fabric
	Log      *Log
	Flight   *obs.FlightRecorder
	Metrics  Metrics
}

// apply injects one event's fault and returns its clear hook (nil when
// the injection failed; the failure is recorded, not fatal — a scenario
// should survive a target that disappeared mid-run).
func (r *Runner) apply(ev Event, at time.Duration) func() {
	clear, err := r.Fabric.Inject(ev.Fault, ev.Target)
	if err != nil {
		r.Metrics.Errors.Inc()
		r.Log.Addf("%v inject %v on %s: error: %v", at, ev.Fault, ev.Target, err)
		r.record("fault-error", ev, map[string]any{"err": err.Error()})
		return nil
	}
	r.Metrics.Injected.Inc()
	r.Metrics.Active.Add(1)
	r.Log.Addf("%v inject %v on %s", at, ev.Fault, ev.Target)
	r.record("fault-injected", ev, nil)
	return clear
}

// clear runs one fault's clear hook and records it.
func (r *Runner) clear(ev Event, at time.Duration, hook func()) {
	hook()
	r.Metrics.Cleared.Inc()
	r.Metrics.Active.Add(-1)
	r.Log.Addf("%v clear %v on %s", at, ev.Fault, ev.Target)
	r.record("fault-cleared", ev, nil)
}

func (r *Runner) record(name string, ev Event, extra map[string]any) {
	attrs := map[string]any{
		"fault":  ev.Fault.String(),
		"target": ev.Target,
	}
	for k, v := range extra {
		attrs[k] = v
	}
	r.Flight.Record(obs.Event{
		Component: "chaos",
		Phase:     "fault",
		Name:      name,
		Attrs:     attrs,
	})
}

// ScheduleSim arms every scenario event on the simulator clock, relative
// to the simulator's current time. The subsequent sim.Run/RunUntil plays
// the script; everything happens on the simulator goroutine, so the run
// is fully deterministic.
func (r *Runner) ScheduleSim(sim *simnet.Sim) error {
	if err := r.Scenario.Validate(); err != nil {
		return err
	}
	base := sim.Now()
	for _, ev := range r.Scenario.Events {
		ev := ev
		sim.Schedule(base+simnet.Time(ev.At), func() {
			at := time.Duration(sim.Now() - base)
			hook := r.apply(ev, at)
			if hook != nil && ev.Duration > 0 {
				sim.After(simnet.Duration(ev.Duration), func() {
					r.clear(ev, time.Duration(sim.Now()-base), hook)
				})
			}
		})
	}
	return nil
}

// PlayClock is the time source Play needs: WallClock and FakeClock both
// satisfy it.
type PlayClock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// Play runs the scenario against a live fabric, sleeping on clk between
// events; it returns when every event has been applied and cleared, or
// when stop closes (pending faults are cleared on the way out). Drive it
// with a FakeClock from a test goroutine, or WallClock for a soak.
func (r *Runner) Play(clk PlayClock, stop <-chan struct{}) error {
	if err := r.Scenario.Validate(); err != nil {
		return err
	}
	start := clk.Now()
	// Build the timeline: applies and clears, sorted by time (stable for
	// equal stamps: script order).
	type action struct {
		at    time.Duration
		ev    Event
		idx   int
		clear bool
	}
	var timeline []action
	for i, ev := range r.Scenario.Events {
		timeline = append(timeline, action{at: ev.At, ev: ev, idx: i})
		if ev.Duration > 0 {
			timeline = append(timeline, action{at: ev.At + ev.Duration, ev: ev, idx: i, clear: true})
		}
	}
	for i := 1; i < len(timeline); i++ {
		for j := i; j > 0 && timeline[j].at < timeline[j-1].at; j-- {
			timeline[j], timeline[j-1] = timeline[j-1], timeline[j]
		}
	}
	hooks := make(map[int]func())
	defer func() {
		for _, hook := range hooks {
			hook()
		}
	}()
	for _, a := range timeline {
		for {
			now := clk.Now().Sub(start)
			if now >= a.at {
				break
			}
			select {
			case <-clk.After(a.at - now):
			case <-stop:
				return nil
			}
		}
		if a.clear {
			if hook := hooks[a.idx]; hook != nil {
				delete(hooks, a.idx)
				r.clear(a.ev, a.at, hook)
			}
			continue
		}
		if hook := r.apply(a.ev, a.at); hook != nil {
			if a.ev.Duration > 0 {
				hooks[a.idx] = hook
			} else {
				defer hook()
			}
		}
	}
	return nil
}
