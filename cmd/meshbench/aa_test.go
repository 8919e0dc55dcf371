package main

import (
	"math"
	"testing"

	"freemeasure/internal/bench"
)

// TestQuartilesMatchPythonExclusive pins quartiles to the values
// statistics.quantiles(values, n=4) gives for the same ten numbers.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	values := []float64{9.1, 10.4, 9.8, 10.0, 11.2, 9.5, 10.1, 9.9, 10.6, 10.3}
	q1, med, q3 := quartiles(values)
	for _, c := range []struct{ got, want float64 }{{q1, 9.725}, {med, 10.05}, {q3, 10.45}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("quartiles = %v %v %v, want 9.725 10.05 10.45", q1, med, q3)
			break
		}
	}
}

func TestWorseningFollowsDirection(t *testing.T) {
	higher := bench.MetricDef{Better: "higher"}
	lower := bench.MetricDef{Better: "lower"}
	if got := worsening(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100 -> 90 worsened by %v, want 0.10", got)
	}
	if got := worsening(lower, 100, 90); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("latency 100 -> 90 worsened by %v, want -0.10", got)
	}
}
