package estimator

import "math"

func init() {
	Register("selfload", func(cfg Config) Estimator { return NewSelfLoading(cfg) })
}

// SelfLoading is a self-loading iterative prober in the pathload/IGI
// family (Jain & Dovrolis; Hu & Steenkiste): it requests probe trains at
// chosen rates and watches whether each train self-induces congestion. A
// congested train proves rate > avail-bw, an uncongested one proves the
// opposite, so the estimator binary-searches the [lo, hi] rate bracket
// until its width falls under Resolution. Converged, it switches to watch
// mode — alternating cheap probes just under lo and just over hi — and
// reopens the search the moment a verdict contradicts the bracket (cross
// traffic changed). Unlike the passive estimators it controls its own
// sampling rates, so it converges on idle paths where no application
// traffic exists to ride on — at the cost of the probe bytes themselves.
//
// It also folds in passive observations when offered (they are free
// verdicts), so over a busy path the bracket tightens without probes.
type SelfLoading struct {
	cfg Config
	// Resolution stops the binary search when hi-lo <= Resolution*hi
	// (default 0.10): tighter costs probes, looser costs accuracy.
	Resolution float64
	// EdgeFrac places watch-mode probes at lo*(1-EdgeFrac) and
	// hi*(1+EdgeFrac) (default 0.15) — far enough from the boundary that
	// a clean/congested verdict is informative, close enough to notice
	// modest shifts.
	EdgeFrac float64
	// ProbePackets and ProbeBytes shape each requested train (defaults 50
	// packets of 1000 bytes, ~50 kB per probe). Trains must run long
	// enough that a small rate excess builds a queue visible above the
	// cross-traffic jitter, or near-threshold probes read as clean and the
	// estimate biases high.
	ProbePackets int
	ProbeBytes   int

	lo, hi    float64
	count     int
	last      int64
	haveCong  bool
	haveClean bool
	edgeHigh  bool // watch mode: alternate low/high edge probes
	// Contradiction streaks: a single verdict against the established
	// bracket may be a misclassified train (passive feeds carry them), so
	// collapsing or reopening needs two in a row.
	congStreak  int
	cleanStreak int
}

// NewSelfLoading builds the prober with the bracket open to the config's
// full rate range.
func NewSelfLoading(cfg Config) *SelfLoading {
	cfg = cfg.withDefaults()
	return &SelfLoading{
		cfg:          cfg,
		Resolution:   0.10,
		EdgeFrac:     0.15,
		ProbePackets: 50,
		ProbeBytes:   1000,
		lo:           cfg.MinRateMbps,
		hi:           cfg.MaxRateMbps,
	}
}

func (p *SelfLoading) Name() string { return "selfload" }
func (p *SelfLoading) Kind() Kind   { return Active }

// converged reports whether the bracket is tighter than the resolution.
func (p *SelfLoading) converged() bool {
	return p.haveCong && p.haveClean && p.hi-p.lo <= math.Max(p.Resolution*p.hi, 0.5)
}

// NextProbe implements Prober: the next rate the search wants tested.
func (p *SelfLoading) NextProbe(now int64) (Probe, bool) {
	var rate float64
	switch {
	case p.converged():
		// Watch mode: probe the edges, alternating, to detect drift in
		// either direction at minimal load.
		if p.edgeHigh {
			rate = math.Min(p.cfg.MaxRateMbps, p.hi*(1+p.EdgeFrac))
		} else {
			rate = math.Max(p.cfg.MinRateMbps, p.lo*(1-p.EdgeFrac))
		}
		p.edgeHigh = !p.edgeHigh
	case !p.haveCong:
		// No congestion seen anywhere in the bracket: bisecting would
		// creep toward a ceiling that may be far too low (e.g. after a
		// loss episode collapsed it). Slam the ceiling directly — each
		// clean pass there ratchets it up geometrically via Observe.
		rate = p.hi
	case !p.haveClean:
		rate = p.lo
	default:
		rate = (p.lo + p.hi) / 2
	}
	return Probe{RateMbps: rate, Packets: p.ProbePackets, SizeBytes: p.ProbeBytes}, true
}

func (p *SelfLoading) Observe(o Observation) {
	if o.Ambiguous || o.RateMbps <= 0 {
		return
	}
	r := o.RateMbps
	if o.Congested {
		p.cleanStreak = 0
		switch {
		case r <= p.lo*1.01 && p.haveClean:
			// Congestion at or below the proven-clean floor: the path got
			// slower than the whole bracket. One such verdict may be a
			// misclassified train; two in a row halve the floor and restart
			// the search downward.
			p.congStreak++
			if p.congStreak >= 2 {
				p.lo = math.Max(p.cfg.MinRateMbps, r/2)
				p.hi = math.Max(p.lo, math.Min(p.hi, r))
				p.haveClean = false
				p.congStreak = 0
			}
		case r <= p.lo*1.01:
			// The floor was never proven clean, so congestion here carries
			// no contradiction — halve immediately and keep descending.
			p.lo = math.Max(p.cfg.MinRateMbps, r/2)
			p.hi = math.Max(p.lo, math.Min(p.hi, r))
			p.haveCong = true
		case r <= p.hi:
			p.hi = r
			p.haveCong = true
		}
	} else {
		p.congStreak = 0
		switch {
		case r >= p.hi*0.99:
			// A clean pass at or above the congested ceiling: the path got
			// faster. Confirmed (or while no congestion bounds the bracket
			// at all), double the ceiling and search upward.
			p.cleanStreak++
			if p.cleanStreak >= 2 || !p.haveCong {
				p.hi = math.Min(p.cfg.MaxRateMbps, math.Max(r, p.hi)*2)
				p.lo = math.Max(p.lo, math.Min(r, p.hi))
				p.haveCong = false
				p.haveClean = true
				p.cleanStreak = 0
			}
		case r >= p.lo*0.99:
			p.lo = math.Max(p.lo, r)
			p.haveClean = true
		}
	}
	if p.lo > p.hi {
		p.lo = math.Max(p.cfg.MinRateMbps, p.hi/2)
	}
	p.count++
	if o.At > p.last {
		p.last = o.At
	}
}

func (p *SelfLoading) Estimate(now int64) (Estimate, bool) {
	if p.count == 0 {
		return Estimate{}, false
	}
	est := Estimate{Lo: p.lo, Hi: p.hi, Count: p.count, At: p.last}
	switch {
	case !p.haveCong:
		// Everything passed clean so far: lo is only a lower bound.
		est.Mbps = p.lo
		est.Hi = math.Inf(1)
		est.Quality = 0.2 * saturate(p.count, 6)
	case !p.haveClean:
		est.Mbps = p.hi
		est.Lo = 0
		est.Quality = 0.2 * saturate(p.count, 6)
	default:
		est.Mbps = (p.lo + p.hi) / 2
		width := (p.hi - p.lo) / math.Max(p.hi, 1e-9)
		est.Quality = math.Max(0, 1-width) * saturate(p.count, 6)
	}
	est.Kind = bracketBound(est.Lo, est.Hi)
	return est, true
}

func (p *SelfLoading) Reset() {
	p.lo, p.hi = p.cfg.MinRateMbps, p.cfg.MaxRateMbps
	p.count = 0
	p.last = 0
	p.haveCong, p.haveClean = false, false
	p.edgeHigh = false
}
