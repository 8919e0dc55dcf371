package estimator

import "math"

func init() {
	Register("minplus", func(cfg Config) Estimator { return NewMinPlus(cfg) })
}

// MinPlus estimates available bandwidth with the min-plus system-theoretic
// model of Liebeherr, Fidler & Valaee ("A System Theoretic Approach to
// Bandwidth Estimation"): the network is a min-plus linear system whose
// service curve has rate C (capacity) leftover A (available bandwidth),
// and a packet train at rate r probes one point of the Legendre transform
// of that curve. Under the fluid model the queueing delay across a train
// paced at rate r grows linearly in time with slope
//
//	m(r) = max(0, (r - A) / C)
//
// so trains are rate scans: each resolved train contributes the sample
// (r, m). Trains with m ~ 0 bound A from below; for the rest, m is linear
// in r, and a least-squares fit of m against r over the congested samples
// recovers both parameters at once — A is the fit's x-intercept and C the
// inverse of its slope. This "deconvolves" the service curve from passive
// delay measurements: no probe traffic, the same Wren train feed SIC
// consumes, but unlike SIC's binary verdicts it exploits *how fast* delay
// grew, so a handful of congested trains at different rates pin A down
// without needing trains to straddle it.
//
// Trains without per-packet RTT detail degrade gracefully: their binary
// verdict still tightens the [lo, hi] bracket, they just cannot join the
// regression.
type MinPlus struct {
	cfg Config
	// SlopeEps separates "delay grew" from measurement noise: trains with
	// fitted slope above it count as congested points (default 0.02, i.e.
	// queueing delay accrues at 2% of elapsed time).
	SlopeEps float64
	samples  []mpSample
	last     int64
}

type mpSample struct {
	at        int64
	rate      float64
	slope     float64
	detail    bool // slope was fitted from per-packet RTTs
	congested bool
}

// NewMinPlus builds the estimator.
func NewMinPlus(cfg Config) *MinPlus {
	return &MinPlus{cfg: cfg.withDefaults(), SlopeEps: 0.02}
}

func (m *MinPlus) Name() string { return "minplus" }
func (m *MinPlus) Kind() Kind   { return Passive }

func (m *MinPlus) Observe(o Observation) {
	if o.RateMbps <= 0 {
		return
	}
	s := mpSample{at: o.At, rate: o.RateMbps}
	if slope, ok := delaySlope(o.Departures, o.RTTs); ok {
		s.detail = true
		s.slope = slope
		s.congested = slope > m.SlopeEps
	} else if o.Ambiguous {
		// No per-packet detail and no verdict: nothing to learn.
		return
	} else {
		// Verdict-only train: usable for the bracket, not the regression.
		s.congested = o.Congested
	}
	// Loss-congested trains can show a flat delay trend (saturated droptail
	// queue); trust the verdict over the fitted slope for the bracket.
	if o.Congested && !o.Ambiguous {
		s.congested = true
	}
	m.samples = append(m.samples, s)
	if o.At > m.last {
		m.last = o.At
	}
	m.evict(m.last)
}

func (m *MinPlus) evict(now int64) {
	cutoff := now - m.cfg.MaxAge
	i := 0
	for i < len(m.samples) && m.samples[i].at < cutoff {
		i++
	}
	if over := len(m.samples) - i - m.cfg.Window; over > 0 {
		i += over
	}
	if i > 0 {
		m.samples = append(m.samples[:0], m.samples[i:]...)
	}
}

func (m *MinPlus) Estimate(now int64) (Estimate, bool) {
	if len(m.samples) == 0 {
		return Estimate{}, false
	}
	lo, hi := 0.0, math.Inf(1)
	congested := 0
	for _, s := range m.samples {
		if s.congested {
			congested++
			if s.rate < hi {
				hi = s.rate
			}
		} else if s.rate > lo {
			lo = s.rate
		}
	}
	est := Estimate{Lo: lo, Hi: hi, Kind: bracketBound(lo, hi), Count: len(m.samples), At: m.last}

	// The rate-scan regression: m = r/C - A/C over congested detail samples.
	if a, b, r2, ok := m.fitSlopes(); ok && a > 1e-9 {
		avail := -b / a
		// Clamp into the bracket the binary verdicts establish: the fit
		// extrapolates and noise can push its intercept past a rate that
		// demonstrably passed (or failed) cleanly.
		if avail < lo {
			avail = lo
		}
		if avail > hi {
			avail = hi
		}
		est.Mbps = avail
		est.Quality = math.Max(0.1, r2) * saturate(len(m.samples), 8)
		return est, true
	}

	// No usable regression: fall back to the bracket alone, as SIC would.
	switch {
	case congested == 0:
		est.Mbps = lo
		est.Quality = 0.3 * saturate(len(m.samples), 8)
	case congested == len(m.samples):
		est.Mbps = hi
		est.Quality = 0.3 * saturate(len(m.samples), 8)
	default:
		if math.IsInf(hi, 1) {
			est.Mbps = lo
		} else {
			est.Mbps = (lo + hi) / 2
		}
		est.Quality = 0.5 * saturate(len(m.samples), 8)
	}
	return est, true
}

// fitSlopes least-squares fits slope = a*rate + b over the congested
// detail samples. Needs at least two samples with meaningful rate spread;
// returns the coefficient of determination r2 as fit quality.
func (m *MinPlus) fitSlopes() (a, b, r2 float64, ok bool) {
	var xs, ys []float64
	for _, s := range m.samples {
		if s.detail && s.congested && s.slope > 0 {
			xs = append(xs, s.rate)
			ys = append(ys, s.slope)
		}
	}
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	n := float64(len(xs))
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	// Degenerate scan: all congested trains at (nearly) one rate — the
	// intercept is unconstrained.
	if sxx < 1e-9*(mx*mx+1) {
		return 0, 0, 0, false
	}
	a = sxy / sxx
	b = my - a*mx
	if syy > 0 {
		resid := syy - a*sxy
		if resid < 0 {
			resid = 0
		}
		r2 = 1 - resid/syy
	} else {
		r2 = 1
	}
	return a, b, r2, true
}

func (m *MinPlus) Reset() {
	m.samples = nil
	m.last = 0
}

// delaySlope fits the one-way queueing-delay growth across a train: the
// least-squares slope of RTT against departure time over the matched
// packets, dimensionless (ns of added delay per ns of elapsed time).
func delaySlope(departures, rtts []int64) (float64, bool) {
	if len(departures) == 0 || len(departures) != len(rtts) {
		return 0, false
	}
	var xs, ys []float64
	t0 := departures[0]
	for i := range departures {
		if rtts[i] < 0 {
			continue
		}
		xs = append(xs, float64(departures[i]-t0))
		ys = append(ys, float64(rtts[i]))
	}
	if len(xs) < 4 {
		return 0, false
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	n := float64(len(xs))
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for i := range xs {
		sxx += (xs[i] - mx) * (xs[i] - mx)
		sxy += (xs[i] - mx) * (ys[i] - my)
	}
	if sxx <= 0 {
		return 0, false
	}
	return sxy / sxx, true
}
