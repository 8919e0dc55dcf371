package estimator

import (
	"math"
	"sort"
)

func init() {
	Register("sic", func(cfg Config) Estimator { return NewSIC(cfg) })
}

// SIC is the paper's own estimator and the one the Wren monitor runs per
// path: it fuses a sliding window of self-induced congestion verdicts into
// an available-bandwidth estimate. A single train is "only a singleton
// observation of an inherently bursty process" (section 2.1), so SIC finds
// the rate threshold that best separates the window's congested
// observations (which should lie above the available bandwidth) from the
// uncongested ones (below). Purely passive: it uses only each train's
// (rate, verdict) pair and skips ambiguous trains.
type SIC struct {
	cfg Config
	win []sicSample // time-ordered
}

// sicSample is what the split reads of an Observation.
type sicSample struct {
	at        int64
	rate      float64
	congested bool
}

// NewSIC builds the estimator; it reads cfg's Window and MaxAge.
func NewSIC(cfg Config) *SIC {
	return &SIC{cfg: cfg.withDefaults()}
}

func (s *SIC) Name() string { return "sic" }
func (s *SIC) Kind() Kind   { return Passive }

// Observe windows one verdict. Observations must arrive in time order.
func (s *SIC) Observe(o Observation) {
	if o.Ambiguous || o.RateMbps <= 0 {
		return
	}
	s.win = append(s.win, sicSample{at: o.At, rate: o.RateMbps, congested: o.Congested})
	cutoff := o.At - s.cfg.MaxAge
	i := 0
	for i < len(s.win) && s.win[i].at < cutoff {
		i++
	}
	if i > 0 {
		s.win = append(s.win[:0], s.win[i:]...)
	}
	if over := len(s.win) - s.cfg.Window; over > 0 {
		s.win = append(s.win[:0], s.win[over:]...)
	}
}

// Estimate splits the window; ok is false until one verdict is windowed.
// Quality is the split's classification purity: 1 minus the fraction of
// observations on the wrong side of the chosen threshold.
func (s *SIC) Estimate(now int64) (Estimate, bool) {
	n := len(s.win)
	if n == 0 {
		return Estimate{}, false
	}
	sorted := make([]sicSample, n)
	copy(sorted, s.win)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].rate < sorted[j].rate })
	est := Estimate{Count: n, At: s.win[n-1].at, Quality: 1}

	congestedTotal := 0
	for _, o := range sorted {
		if o.congested {
			congestedTotal++
		}
	}
	// Choose split k in [0,n]: observations below index k should be
	// uncongested, those at or above should be congested. errors(k) =
	// congested below + uncongested above; scan all splits in O(n). Ties
	// are broken by the median minimizing split, which centers the
	// estimate inside the overlap region instead of hugging its edge.
	// A window with one verdict only splits at an edge.
	bestK := n
	if congestedTotal == n {
		bestK = 0
	} else if congestedTotal > 0 {
		errs := n - congestedTotal // k=0: all uncongested misclassified as above
		bestErr := errs
		bestKs := []int{0}
		congBelow, uncongBelow := 0, 0
		for k := 1; k <= n; k++ {
			if sorted[k-1].congested {
				congBelow++
			} else {
				uncongBelow++
			}
			errs = congBelow + (n - congestedTotal - uncongBelow)
			switch {
			case errs < bestErr:
				bestErr = errs
				bestKs = bestKs[:0]
				bestKs = append(bestKs, k)
			case errs == bestErr:
				bestKs = append(bestKs, k)
			}
		}
		bestK = bestKs[len(bestKs)/2]
		est.Quality = 1 - float64(bestErr)/float64(n)
	}
	switch bestK {
	case 0:
		est.Mbps = sorted[0].rate
		est.Hi = sorted[0].rate
	case n:
		est.Mbps = sorted[n-1].rate
		est.Lo = sorted[n-1].rate
		est.Hi = math.Inf(1)
	default:
		est.Lo = sorted[bestK-1].rate
		est.Hi = sorted[bestK].rate
		est.Mbps = (est.Lo + est.Hi) / 2
	}
	est.Kind = bracketBound(est.Lo, est.Hi)
	return est, true
}

func (s *SIC) Reset() { s.win = nil }
