package wren

import "math"

// EstimatorConfig bounds the observation window of each path's SIC and
// latency estimators.
type EstimatorConfig struct {
	Window int   // max observations retained (default 64)
	MaxAge int64 // observations older than this are evicted, ns (default 60 s)
}

func (c EstimatorConfig) withDefaults() EstimatorConfig {
	if c.Window == 0 {
		c.Window = 64
	}
	if c.MaxAge == 0 {
		c.MaxAge = 60_000_000_000
	}
	return c
}

// LatencyEstimator tracks path latency as the windowed minimum RTT halved
// (one-way latency under symmetric paths — the same approximation the
// paper's latency matrix uses).
type LatencyEstimator struct {
	cfg  EstimatorConfig
	rtts []rttSample
}

type rttSample struct{ at, minRTT int64 }

// NewLatencyEstimator creates a latency estimator.
func NewLatencyEstimator(cfg EstimatorConfig) *LatencyEstimator {
	return &LatencyEstimator{cfg: cfg.withDefaults()}
}

// Add records a train's minimum RTT sample.
func (l *LatencyEstimator) Add(at, minRTT int64) {
	l.rtts = append(l.rtts, rttSample{at, minRTT})
	cutoff := at - l.cfg.MaxAge
	i := 0
	for i < len(l.rtts) && l.rtts[i].at < cutoff {
		i++
	}
	if i > 0 {
		l.rtts = append(l.rtts[:0], l.rtts[i:]...)
	}
	if len(l.rtts) > l.cfg.Window {
		over := len(l.rtts) - l.cfg.Window
		l.rtts = append(l.rtts[:0], l.rtts[over:]...)
	}
}

// RTTMs returns the windowed minimum round-trip time in milliseconds.
func (l *LatencyEstimator) RTTMs() (float64, bool) {
	if len(l.rtts) == 0 {
		return 0, false
	}
	min := int64(math.MaxInt64)
	for _, o := range l.rtts {
		if o.minRTT < min {
			min = o.minRTT
		}
	}
	return float64(min) / 1e6, true
}

// LatencyMs returns the one-way latency estimate (RTT/2) in milliseconds.
func (l *LatencyEstimator) LatencyMs() (float64, bool) {
	rtt, ok := l.RTTMs()
	return rtt / 2, ok
}
