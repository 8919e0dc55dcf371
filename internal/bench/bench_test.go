package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json unreadable: %v", err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness keeps the committed contract and the
// harness's own metric and workload tables in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %+v", i, b.Workloads[i], w)
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, harness %d", len(b.EndToEnd), len(EndToEnd))
	}
	for i, d := range EndToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, harness %d", len(b.PerLayer), len(PerLayer))
	}
	for i, d := range PerLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
	}
}

// checkResult asserts the shared contract of a smoke run: every declared
// metric present with its unit and a usable value, no failed ops, every
// output check passed.
func checkResult(t *testing.T, res *Result, defs []MetricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v",
			res.Workload, res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", res.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
		case m.Value != m.Value:
			t.Errorf("%s: metric %s is NaN", res.Workload, d.Name)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: metric %s = %v, want > 0", res.Workload, d.Name, m.Value)
		}
	}
}

// goroutinesBackTo waits for asynchronous connection teardown to finish.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	if !waitFor(3*time.Second, 10*time.Millisecond, func() bool { return runtime.NumGoroutine() <= base }) {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: %d before, %d after teardown\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	}
}

// Tiny sizes, two rounds: the smoke tests prove the plumbing, not the numbers.
const smokeRounds = 2

var (
	smokeRelay = relaySizes{warmFrames: 300, windows: 2, window: 100 * time.Millisecond}
	smokeAdapt = adaptSizes{warmOps: 2 * regimeEvery, ops: 3 * regimeEvery}
	smokeFeed  = feedSizes{warmEpochs: 3, epochs: 6}
)

func TestSmokeRelayWorkloads(t *testing.T) {
	for _, w := range []string{RelaySmall, BulkDuplex} {
		base := runtime.NumGoroutine()
		res, err := runRelay(w, 1, smokeRelay, smokeRounds)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkResult(t, res, EndToEnd, true)
		goroutinesBackTo(t, base)
	}
}

func TestSmokeAdaptShift(t *testing.T) {
	base := runtime.NumGoroutine()
	res, err := runAdapt(1, smokeAdapt, smokeRounds)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, EndToEnd, true)
	if res.Counts["full_solves"] == 0 || res.Counts["warm_solves"] == 0 {
		t.Errorf("solve modes not both exercised: %v", res.Counts)
	}
	goroutinesBackTo(t, base)
}

func TestSmokeMeasureFeed(t *testing.T) {
	base := runtime.NumGoroutine()
	res, err := runFeed(1, genFeedTrace(1), smokeFeed, smokeRounds)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, EndToEnd, true)
	if res.Counts["observations_per_round"] == 0 {
		t.Errorf("no observations analysed: %v", res.Counts)
	}
	goroutinesBackTo(t, base)
}

// TestSmokeTracedRun drives the whole per-layer pass at one second's
// size: every per_layer metric emitted, the adapt and feed phase spans
// tiling their ops within 10%, op-level counts identical between the
// traced and untraced pass, the span file written, goroutines gone.
func TestSmokeTracedRun(t *testing.T) {
	base := runtime.NumGoroutine()
	var spans bytes.Buffer
	res, err := RunTraced(AdaptShift, 2, 1, TraceOptions{TmpDir: t.TempDir(), Out: &spans, OverheadForAll: true})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, PerLayer, false)
	for _, name := range []string{"bench.adapt_phase_sum_ratio", "bench.feed_phase_sum_ratio"} {
		if v := res.Metrics[name].Value; v < 0.9 || v > 1.1 {
			t.Errorf("%s = %.3f, want within 10%% of 1", name, v)
		}
	}
	for _, w := range Workloads {
		if _, ok := res.Overheads[w.Name]; !ok {
			t.Errorf("no trace overhead reported for %s", w.Name)
		}
	}
	var first Span
	line, _, _ := bytes.Cut(spans.Bytes(), []byte("\n"))
	if err := json.Unmarshal(line, &first); err != nil || first.Op == 0 || first.Layer == "" {
		t.Errorf("span file's first line %q: %v", line, err)
	}
	goroutinesBackTo(t, base)
}

func TestSpanSelfTimeAndPhaseSum(t *testing.T) {
	spans := []Span{
		{Op: 1, ID: 1, Layer: "bench", Name: "op", StartNs: 0, EndNs: 100},
		{Op: 1, ID: 2, Parent: 1, Layer: "coord", Name: "refresh", StartNs: 0, EndNs: 40},
		{Op: 1, ID: 3, Parent: 2, Layer: "coord", Name: "put", StartNs: 5, EndNs: 15},
		{Op: 1, ID: 4, Parent: 1, Layer: "control", Name: "cycle", StartNs: 40, EndNs: 95},
	}
	st := foldSpans(spans)
	if got := st.selfMs["bench"] * 1e6; got != 5 {
		t.Errorf("bench self time = %v ns, want 5 (100 minus children 40+55)", got)
	}
	if got := st.selfMs["coord"] * 1e6; got != 40 {
		t.Errorf("coord self time = %v ns, want 40 (refresh 30 self + put 10)", got)
	}
	if got := phaseSumRatio(spans, "bench.op"); got != 0.95 {
		t.Errorf("phase sum ratio = %v, want 0.95", got)
	}
}
