package core

import (
	"sync"
	"time"

	"freemeasure/internal/control"
)

// AutoAdaptConfig governs the background cycle scheduler. What a cycle
// decides, cost/benefit gate included, is the controller's business; the
// scheduler adds the rest of the damping the paper asks for ("adaptation
// decisions ... cannot lead to oscillation"): a hold-down between applied
// plans, so the effect of one move is observed before the next is made.
type AutoAdaptConfig struct {
	// Every is the evaluation period (default 2 s).
	Every time.Duration
	// HoldDown is the minimum time between applied plans (default 2*Every).
	HoldDown time.Duration
	// Clock is the loop's time source; nil means wall time. Tests inject
	// chaos.FakeClock to drive ticks and the hold-down without sleeping.
	Clock Clock
}

// Clock abstracts the adaptation loop's time source.
type Clock interface {
	// Ticker delivers the clock's time every d until stop is called.
	Ticker(d time.Duration) (ticks <-chan time.Time, stop func())
}

// wallClock is the production Clock: real time.
type wallClock struct{}

func (wallClock) Ticker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

func (c AutoAdaptConfig) withDefaults() AutoAdaptConfig {
	if c.Every == 0 {
		c.Every = 2 * time.Second
	}
	if c.HoldDown == 0 {
		c.HoldDown = 2 * c.Every
	}
	if c.Clock == nil {
		c.Clock = wallClock{}
	}
	return c
}

// AutoAdaptStats counts loop activity. Evaluations counts every tick;
// ticks inside the hold-down run no cycle, so the rest sum to cycles run.
type AutoAdaptStats struct {
	Evaluations uint64
	Applied     uint64 // cycles whose plan was applied
	Skipped     uint64 // cycles that changed nothing: no demands, no diff, or gated
	Errors      uint64 // cycles whose sense or apply failed
}

// AutoAdapter runs the system's controller on a ticker.
type AutoAdapter struct {
	ctl  *control.Controller
	cfg  AutoAdaptConfig
	stop chan struct{}
	done chan struct{}

	lastApplied time.Time // loop goroutine only

	mu    sync.Mutex
	stats AutoAdaptStats
}

// StartAutoAdapt launches the loop. Stop it with Stop.
func (s *System) StartAutoAdapt(cfg AutoAdaptConfig) *AutoAdapter {
	a := &AutoAdapter{ctl: s.ctl, cfg: cfg.withDefaults(), stop: make(chan struct{}), done: make(chan struct{})}
	ticks, stop := a.cfg.Clock.Ticker(a.cfg.Every) // here, so the period counts from Start
	go a.loop(ticks, stop)
	return a
}

// Stop halts the loop and waits for it.
func (a *AutoAdapter) Stop() {
	close(a.stop)
	<-a.done
}

// Stats returns a copy of the loop counters.
func (a *AutoAdapter) Stats() AutoAdaptStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

func (a *AutoAdapter) loop(ticks <-chan time.Time, stop func()) {
	defer close(a.done)
	defer stop()
	for {
		select {
		case <-a.stop:
			return
		case now := <-ticks:
			a.step(now)
		}
	}
}

// step is one tick: a cycle, unless a plan was applied within HoldDown. It
// counts afterwards, so once Evaluations advances LastCycle is that tick's.
func (a *AutoAdapter) step(now time.Time) {
	held := !a.lastApplied.IsZero() && now.Sub(a.lastApplied) < a.cfg.HoldDown
	var res control.CycleResult
	if !held {
		res = a.ctl.RunCycle()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Evaluations++
	switch {
	case held:
	case res.Err != nil:
		a.stats.Errors++
	case res.Applied:
		a.stats.Applied++
		a.lastApplied = now
	default:
		a.stats.Skipped++
	}
}
