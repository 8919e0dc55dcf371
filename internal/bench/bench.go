// Package bench is the meshbench harness: four closed-loop workloads
// driven over real loopback sockets (loopback, not a real link), each
// assembled only through the public constructors of the packages under
// test, with output checks, end-to-end metrics and — in a separate traced
// run — a per-layer breakdown. cmd/meshbench is the command-line front;
// cmd/meshbench/README.md defines every workload and metric.
//
// The noise rules the harness obeys are spelled out once here because
// every file below depends on them:
//
//  1. GOMAXPROCS is pinned to min(nproc, 2) and recorded.
//  2. A run is several rounds, each on a freshly built system. The relay
//     workloads measure fixed-length windows; the stateful workloads
//     (adapt_shift, measure_feed) run a fixed op count derived from
//     -seconds, never "until the clock says stop", so every run executes
//     the same program. Each metric is the good-side quartile of its
//     per-block samples (see runRounds); adapt_shift, whose rounds replay
//     one scenario, takes that quartile op by op (see foldAdapt).
//  3. No ticker or sleep paces a timed region: reports, polls and control
//     cycles are driven synchronously and waited for on exact counts.
//  4. Waits inside a CPU-accounted region block or sleep >= 50 µs, and
//     block on the exact event count wherever there is one.
//  5. Inputs are a pure function of the seed; op-level counts (applied
//     plans, records analysed) are determinism witnesses.
//  6. setup_s spans construction through a fixed-count warm-up, sampled
//     once per round; input generation happens before that clock starts.
//  7. No percentile above p90 is an end-to-end metric.
//  8. One runtime.GC() precedes each round's timed region.
package bench

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Workload names, in the order every report lists them.
const (
	RelaySmall  = "relay_small"
	BulkDuplex  = "bulk_duplex"
	AdaptShift  = "adapt_shift"
	MeasureFeed = "measure_feed"
)

// DefaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures unless -seconds says otherwise.
const DefaultSeconds = 16

// Workloads lists the four workloads with the reason each exists.
var Workloads = []struct{ Name, Why string }{
	{RelaySmall, "64-byte frames over 2 overlay hops with Wren, VTTIF and obs on, plus a ping under load: per-frame cost is all there is"},
	{BulkDuplex, "1500-byte frames both ways over one direct link: bytes, copies and frame/ack contention dominate, per-frame bookkeeping is diluted"},
	{AdaptShift, "a fixed scenario of demand shifts through map refresh, VTTIF reports, a control cycle and the flood storm of each applied plan on a 6-host star: control plane only"},
	{MeasureFeed, "simulated trace for 32 paths through forwarder, repository, store and published map: Wren analysis and coordination tier, no vnet"},
}

// MetricDef names one metric the harness emits; BENCHMARK.json repeats
// these (a test keeps the two in step).
type MetricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening as a share of the median; 0 for per-layer metrics
}

// EndToEnd is the gated metric set. Every workload reports every one; what
// an "op" and its latency are is the workload's own definition:
//
//	relay_small   op = delivered stream frame   lat = ping RTT while the pipe is full
//	bulk_duplex   op = delivered stream frame   lat = inject→deliver of stream frames
//	adapt_shift   op = shift→adapted cycle      lat = refresh+report+cycle of warm-solve cycles
//	measure_feed  op = analysed trace record    lat = flush returned → parsed map accepted
var EndToEnd = []MetricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p90_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// Metric is one reported value.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Result is the outcome of one workload run.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"` // failed output checks, in words
	Metrics   map[string]Metric `json:"metrics"`
	// Counts are the op-level determinism witnesses (applied plans,
	// records analysed, ...): identical for every run of one seed and size.
	Counts map[string]int64 `json:"counts"`
	// Overheads is the traced run's tracing overhead per workload measured
	// (traced pass over untraced pass, minus one).
	Overheads map[string]float64 `json:"trace_overheads,omitempty"`
	// SelfMs is the traced run's self time by layer (a span's duration
	// minus what its child spans cover), summed over the adapt_shift and
	// measure_feed passes: workload -> layer -> milliseconds.
	SelfMs map[string]map[string]float64 `json:"self_ms,omitempty"`
}

func (r *Result) set(name, unit string, v float64, samples int) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]Metric)
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

func (r *Result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Env describes where a report was produced.
type Env struct {
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Link       string `json:"link"` // always "loopback": no number here crossed a real link
}

// PinProcs applies noise rule 1 and returns the value set.
func PinProcs() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
	return n
}

// CollectEnv records the run's environment. commit is best effort: the
// benchmark also runs in checkouts that are not git repositories.
func CollectEnv(seed int64, commit string) Env {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return Env{
		Seed: seed, Commit: commit, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: kernel, Link: "loopback",
	}
}

// maxRSSMB is the process's peak resident set (getrusage reports KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rwSyscalls reads syscr+syscw from /proc/self/io: the read- and
// write-family system calls this process has made. ok is false where the
// file is missing (not Linux, or a restricted container).
func rwSyscalls() (n uint64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		key, val, found := strings.Cut(line, ": ")
		if !found || (key != "syscr" && key != "syscw") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return 0, false
		}
		n += v
		ok = true
	}
	return n, ok
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// waitFor polls cond every step (at least 50 µs: noise rule 4, it sleeps
// and never spins) until it holds or timeout passes.
func waitFor(timeout, step time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return cond()
		}
		time.Sleep(max(step, 50*time.Microsecond))
	}
	return true
}

// A run is several rounds. Each round builds a fresh system, warms it with
// a fixed op count, measures and tears it down; it yields one sample of
// setup_s and one sample of every other end-to-end metric per block it
// measured (a relay round cuts its window into four blocks; a feed round is
// a single block). Within a run every block is the same program, and the run
// reports, for each metric, the quartile of its samples on the metric's good
// side. How many rounds a workload splits its run into is its own constant
// (relayRounds, adaptRounds, feedRounds). adapt_shift builds its rounds the
// same way but folds them itself, op by op: see foldAdapt.
//
// Why a quartile and not the median: on a shared 2-core box interference
// from outside the process comes in bursts of a few seconds and only ever
// slows a round down (a pure integer loop timed for a second at a stretch
// reads 0.96–1.15 s here), so the samples of a run are the undisturbed
// value plus a one-sided error. The good-side quartile tracks the
// undisturbed value while up to three quarters of the blocks are hit; a
// real regression moves every block and so moves the quartile just the
// same. Building afresh each round also averages over whatever placement of
// connections and goroutines a single system happened to get.

// blockValues is one block's sample of each end-to-end metric but setup_s.
type blockValues struct {
	opsPerS    float64
	cpuUsPerOp float64
	latP50Us   float64
	latP90Us   float64
}

// goodQuartile is the upper quartile for higher-is-better samples and the
// lower quartile otherwise.
func goodQuartile(xs []float64, higherBetter bool) float64 {
	if higherBetter {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

// runRounds runs one round per index and folds the samples into res.
func runRounds(res *Result, n int, one func(round int) (setupS float64, blocks []blockValues, err error)) error {
	var setup, ops, cpu, p50, p90 []float64
	for r := 0; r < n; r++ {
		s, blocks, err := one(r)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		setup = append(setup, s)
		for _, v := range blocks {
			ops = append(ops, v.opsPerS)
			cpu = append(cpu, v.cpuUsPerOp)
			p50 = append(p50, v.latP50Us)
			p90 = append(p90, v.latP90Us)
		}
	}
	res.set("ops_per_s", "1/s", goodQuartile(ops, true), len(ops))
	res.set("cpu_us_per_op", "us", goodQuartile(cpu, false), len(cpu))
	res.set("lat_p50_us", "us", goodQuartile(p50, false), len(p50))
	res.set("lat_p90_us", "us", goodQuartile(p90, false), len(p90))
	res.set("setup_s", "s", goodQuartile(setup, false), len(setup))
	return nil
}
