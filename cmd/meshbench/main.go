// meshbench measures the overlay end to end and layer by layer: four
// fixed-work workloads over real loopback TCP (loopback, not a real
// link), output checks, and a separate traced run for the per-layer
// table. README.md in this directory defines every workload and metric.
//
//	go run ./cmd/meshbench -seed 1                    # full report: all workloads, then the traced run
//	go run ./cmd/meshbench -seed 1 -aa 2              # two back-to-back sets, PASS/FAIL per metric against its bound
//	go run ./cmd/meshbench --workload relay_small --seed 7 --seconds 16 --trace 0   # one run, result as the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"

	"freemeasure/internal/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print its result object as the last line (default: all four, full report)")
		seed     = flag.Int64("seed", 1, "the only input knob: every generated input is a pure function of it")
		seconds  = flag.Int("seconds", bench.DefaultSeconds, "how long one run measures; sizes the windows and the fixed op counts")
		traced   = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = the traced run's per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the traced run's spans here (JSON lines) at exit")
		aa       = flag.Int("aa", 0, "run this many back-to-back sets and judge every end-to-end metric against its bound")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *aa < 0 {
		flag.Usage()
		os.Exit(2)
	}
	procs := bench.PinProcs()
	var err error
	switch {
	case *aa > 0:
		err = runAA(*seed, *seconds, *aa)
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, procs, *traced == 1, *traceOut)
	default:
		err = runReport(*seed, *seconds, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshbench:", err)
		os.Exit(1)
	}
}

// commit is best effort: the benchmark also runs from plain directories.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// withTrace runs the traced run with a scratch directory under the
// working directory (the mirror FileStore's log) and an optional span file.
func withTrace(workload string, seed int64, seconds int, traceOut string, all bool) (*bench.Result, error) {
	tmp, err := os.MkdirTemp(".", ".meshbench-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	opt := bench.TraceOptions{TmpDir: tmp, OverheadForAll: all}
	var f *os.File
	if traceOut != "" {
		if f, err = os.Create(traceOut); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
		opt.Out = f
	}
	res, err := bench.RunTraced(workload, seed, seconds, opt)
	if f != nil {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}
	return res, err
}

// printMetrics lists every metric of defs by name with unit, sample count
// and (for gated metrics) the regression bound.
func printMetrics(w io.Writer, res *bench.Result, defs []bench.MetricDef) {
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-42s MISSING\n", d.Name)
			continue
		}
		line := fmt.Sprintf("  %-42s %16.4f %-6s", d.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%-8d", m.Samples)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf(" %s is better, may worsen %.0f%%", d.Better, d.Bound*100)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

func printChecks(w io.Writer, res *bench.Result) {
	fmt.Fprintf(w, "  ops attempted %d, failed %d, output checks %s\n", res.Attempted, res.Failed, passFail(res.Correct))
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	for _, k := range sortedKeys(res.Counts) {
		fmt.Fprintf(w, "  count %s = %d\n", k, res.Counts[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// contractLine is the result object the driver reads from the last line.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(workload string, seed int64, seconds, procs int, traced bool, traceOut string) error {
	var res *bench.Result
	var err error
	defs := bench.EndToEnd
	if traced {
		defs = bench.PerLayer
		res, err = withTrace(workload, seed, seconds, traceOut, false)
	} else {
		res, err = bench.Run(workload, seed, seconds)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s seed %d, %d s, loopback (not a real link), GOMAXPROCS %d\n",
		workload, seed, seconds, procs)
	printMetrics(os.Stdout, res, defs)
	printChecks(os.Stdout, res)
	line := contractLine{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed,
		Metrics: make(map[string]contractMetric, len(defs))}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s did not report %s", workload, d.Name)
		}
		line.Metrics[d.Name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// report is the full JSON record of one meshbench invocation.
type report struct {
	Env       bench.Env       `json:"env"`
	Seconds   int             `json:"seconds"`
	EndToEnd  []*bench.Result `json:"end_to_end"`
	PerLayer  *bench.Result   `json:"per_layer"`
	AllPassed bool            `json:"all_passed"`
}

func runReport(seed int64, seconds int, traceOut string) error {
	rep := report{Env: bench.CollectEnv(seed, commit()), Seconds: seconds, AllPassed: true}
	fmt.Printf("meshbench seed %d commit %s: %d s per workload over loopback TCP (not a real link), nproc %d, GOMAXPROCS %d, %s, kernel %s\n",
		seed, rep.Env.Commit, seconds, rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Kernel)
	for _, w := range bench.Workloads {
		res, err := bench.Run(w.Name, seed, seconds)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Printf("\n%s — %s\n", w.Name, w.Why)
		printMetrics(os.Stdout, res, bench.EndToEnd)
		printChecks(os.Stdout, res)
		rep.EndToEnd = append(rep.EndToEnd, res)
		rep.AllPassed = rep.AllPassed && res.Correct && res.Failed == 0
	}
	res, err := withTrace(bench.RelaySmall, seed, seconds, traceOut, true)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	fmt.Printf("\ntraced run — per-layer metrics (all four workloads at reduced size, spans recorded by the benchmark around each layer call)\n")
	printMetrics(os.Stdout, res, bench.PerLayer)
	for _, w := range bench.Workloads {
		if o, ok := res.Overheads[w.Name]; ok {
			fmt.Printf("  %-42s %16.4f ratio\n", "bench.trace_overhead_ratio@"+w.Name, o)
		}
		for _, layer := range sortedKeys(res.SelfMs[w.Name]) {
			fmt.Printf("  %-42s %16.4f ms\n", "self time "+layer+"@"+w.Name, res.SelfMs[w.Name][layer])
		}
	}
	printChecks(os.Stdout, res)
	rep.PerLayer = res
	rep.AllPassed = rep.AllPassed && res.Correct && res.Failed == 0
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !rep.AllPassed {
		return fmt.Errorf("output checks failed")
	}
	return nil
}
