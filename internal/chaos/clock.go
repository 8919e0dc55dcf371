package chaos

import (
	"sync"
	"time"
)

// WallClock is real time: Now is time.Now and timers are time.After. It
// satisfies PlayClock, for playing a scenario as a soak.
type WallClock struct{}

// Now returns the wall-clock time.
func (WallClock) Now() time.Time { return time.Now() }

// After returns a real timer channel.
func (WallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// FakeClock is a manually advanced time source. It starts at a fixed
// epoch and only moves when Advance is called; due timers fire during the
// advance, in timestamp order.
//
// FakeClock is safe for concurrent use: a background goroutine may block
// on a timer channel while the test drives Advance.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at   time.Time
	ch   chan time.Time
	done bool
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

// After returns a channel that receives the fake time once, d of fake
// time from now.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	t := &fakeTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	return t.ch
}

// Advance moves the clock forward by d, firing every timer that comes
// due, in order.
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
		next.ch <- next.at // buffered, and each timer fires once
		next.done = true
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
