package chaos

import (
	"sync"
	"time"
)

// WallClock is real time: Now is time.Now and tickers are time.Tickers.
// It satisfies the clock interfaces of packages that accept a pluggable
// time source (e.g. core.AutoAdaptConfig.Clock, which uses only Ticker).
type WallClock struct{}

// Now returns the wall-clock time.
func (WallClock) Now() time.Time { return time.Now() }

// Ticker returns a real ticker channel and its stop function.
func (WallClock) Ticker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// After returns a real timer channel.
func (WallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// FakeClock is a manually advanced time source. It starts at a fixed
// epoch and only moves when Advance is called; due tickers and timers
// fire during the advance, in timestamp order. Like time.Ticker, a ticker
// whose channel is full coalesces ticks instead of blocking the advance.
//
// FakeClock is safe for concurrent use: a background loop may block on a
// ticker channel while the test drives Advance.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at     time.Time
	period time.Duration // 0 = one-shot
	ch     chan time.Time
	done   bool
}

// NewFakeClock returns a clock frozen at a fixed, arbitrary epoch.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)}
}

// Now returns the current fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Ticker returns a channel that receives the fake time every d of fake
// time, and a stop function. d must be positive.
func (c *FakeClock) Ticker(d time.Duration) (<-chan time.Time, func()) {
	if d <= 0 {
		panic("chaos: non-positive ticker period")
	}
	c.mu.Lock()
	t := &fakeTimer{at: c.now.Add(d), period: d, ch: make(chan time.Time, 1)}
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	return t.ch, func() {
		c.mu.Lock()
		t.done = true
		c.mu.Unlock()
	}
}

// After returns a channel that receives the fake time once, d of fake
// time from now.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	t := &fakeTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	return t.ch
}

// Advance moves the clock forward by d, firing every ticker and timer
// that comes due, in order.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	target := c.now.Add(d)
	for {
		var next *fakeTimer
		for _, t := range c.timers {
			if t.done || t.at.After(target) {
				continue
			}
			if next == nil || t.at.Before(next.at) {
				next = t
			}
		}
		if next == nil {
			break
		}
		c.now = next.at
		select {
		case next.ch <- next.at:
		default: // coalesce, like time.Ticker
		}
		if next.period > 0 {
			next.at = next.at.Add(next.period)
		} else {
			next.done = true
		}
	}
	c.now = target
	// Compact out finished timers so long runs do not accumulate them.
	live := c.timers[:0]
	for _, t := range c.timers {
		if !t.done {
			live = append(live, t)
		}
	}
	c.timers = live
	c.mu.Unlock()
}
