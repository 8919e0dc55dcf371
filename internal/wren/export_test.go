package wren

import "time"

// The chaos suite that drives the forwarder through a repository outage
// is in package wren_test (internal/chaos imports wren), so it reaches the
// reconnect state through these.

// SetRetry makes f's reconnect backoff start at base and double up to max.
func SetRetry(f *Forwarder, base, max time.Duration) {
	f.mu.Lock()
	f.retryBase, f.retryMax = base, max
	f.mu.Unlock()
}

// RetryState reports f's current backoff (0 once a flush succeeds), when
// the next redial is allowed, and whether a connection exists.
func RetryState(f *Forwarder) (backoff time.Duration, next time.Time, connected bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.backoff, f.nextRetry, f.conn != nil
}
