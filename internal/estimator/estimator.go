package estimator

import "math"

// Kind classifies how an estimator obtains its observations.
type Kind int

const (
	// Passive estimators ride on the application's own traffic — the
	// paper's "free" measurement: zero probe overhead.
	Passive Kind = iota
	// Active estimators inject probe trains of their own, trading network
	// overhead for the ability to measure idle or stale paths on demand.
	Active
)

func (k Kind) String() string {
	if k == Active {
		return "active"
	}
	return "passive"
}

// Observation is one measurement opportunity on a path: a resolved packet
// train with its rate and congestion analysis. Passive estimators receive
// these from the Wren monitor's train hook (wren.Monitor.SetTrainHook);
// active ones additionally receive the results of their own probe trains,
// flagged Probe.
type Observation struct {
	At        int64   // train end timestamp (ns)
	RateMbps  float64 // the train's initial sending rate
	Congested bool    // SIC verdict: RTTs rose (or loss) across the train
	Ambiguous bool    // no verdict: trend neither clearly rising nor flat
	MinRTT    int64   // smallest per-packet RTT in the train (ns)
	TrainLen  int     // packets in the train

	// Departures and RTTs are the train's per-packet detail, parallel
	// slices (RTTs entries < 0 are unmatched). Optional: estimators that
	// need only the (rate, verdict) pair ignore them; the min-plus
	// estimator fits its delay slope from them. Callers retain ownership —
	// estimators must copy what they keep.
	Departures []int64
	RTTs       []int64

	Probe bool // true when the train was an injected probe, not app traffic
}

// Bound says which sides of an estimate's [Lo, Hi] bracket the evidence
// closes. With no congested evidence above the estimate the true value is
// only known to be at least Lo; with no clean evidence below it, at most
// Hi.
type Bound int

const (
	Exact      Bound = iota // Lo and Hi both closed
	LowerBound              // Hi is +Inf: the value is at least Lo
	UpperBound              // Lo is 0: the value is at most Hi
)

func (b Bound) String() string {
	switch b {
	case LowerBound:
		return "lower-bound"
	case UpperBound:
		return "upper-bound"
	default:
		return "exact"
	}
}

// bracketBound names the bound a [lo, hi] bracket gives.
func bracketBound(lo, hi float64) Bound {
	switch {
	case math.IsInf(hi, 1):
		return LowerBound
	case lo == 0:
		return UpperBound
	default:
		return Exact
	}
}

// saturate maps a count onto [0, 1], reaching 1 at full.
func saturate(n, full int) float64 {
	if n >= full {
		return 1
	}
	if n <= 0 {
		return 0
	}
	return float64(n) / float64(full)
}

// Estimate is an estimator's current belief about a path's available
// bandwidth. Mbps is the point estimate; [Lo, Hi] brackets it (Hi is +Inf
// when no congestion has been observed, Lo 0 when no rate has passed
// cleanly) and Kind says which. When the traffic cannot probe rates near
// the true value (e.g. a window-limited TCP on a long path) the bracket
// may be wide, so read Mbps together with it. Quality in [0, 1] is how
// well the evidence pins the value down; At lets callers judge staleness.
type Estimate struct {
	Mbps    float64
	Kind    Bound
	Lo, Hi  float64
	Count   int     // observations contributing
	Quality float64 // in [0, 1]
	At      int64   // timestamp of the newest contributing observation (ns)
}

// Stale reports whether the estimate is older than maxAge (ns) at now.
func (e Estimate) Stale(now, maxAge int64) bool {
	return now-e.At > maxAge
}

// Estimator is one available-bandwidth estimation strategy for a single
// path. Implementations are not safe for concurrent use; wrap with Set for
// multi-path, multi-goroutine feeding.
type Estimator interface {
	// Name returns the registry name ("sic", "minplus", "selfload").
	Name() string
	// Kind reports whether the estimator is passive or active.
	Kind() Kind
	// Observe feeds one resolved train. Implementations decide what to
	// keep: SIC ignores ambiguous trains, min-plus uses any train with
	// per-packet RTTs, selfload folds every verdict into its bracket.
	Observe(Observation)
	// Estimate returns the current belief at time now (ns). ok is false
	// until the estimator has enough evidence to say anything.
	Estimate(now int64) (Estimate, bool)
	// Reset discards all state, as after a path change or chaos event.
	Reset()
}

// Probe describes one probe train an active estimator wants sent: Packets
// packets of SizeBytes each, paced at RateMbps.
type Probe struct {
	RateMbps  float64
	Packets   int
	SizeBytes int
}

// Prober is implemented by Active estimators. NextProbe returns the probe
// train the estimator wants next, or ok=false when it is satisfied for
// now. The transport (eval.ProbeDriver over simnet, vnet.Daemon.Probe over
// the live overlay) sends the train and feeds the resulting Observation
// back through Observe.
type Prober interface {
	NextProbe(now int64) (Probe, bool)
}
