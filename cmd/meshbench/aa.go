package main

import (
	"fmt"
	"math"
	"sort"

	"freemeasure/internal/bench"
)

// quartiles returns Q1, median, Q3 by the exclusive method — what
// Python's statistics.quantiles(values, n=4) computes, so the spread
// printed here is the one the acceptance check uses.
func quartiles(values []float64) (q1, med, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	at := func(p float64) float64 {
		pos := p * float64(len(xs)+1)
		i := int(math.Floor(pos))
		switch {
		case i < 1:
			return xs[0]
		case i >= len(xs):
			return xs[len(xs)-1]
		}
		return xs[i-1] + (pos-float64(i))*(xs[i]-xs[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(def bench.MetricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaRuns is how many runs per workload an A/A set holds, on seeds seed,
// seed+1, ...: the fewest that give the quartiles something to stand on.
const aaRuns = 5

// runAA runs `sets` back-to-back sets of aaRuns runs per workload on one
// commit and holds every end-to-end metric to its own bound: the quartile
// spread inside each set (setup_s excepted, as the acceptance check
// excepts it) and the drift of the median from the first set to each
// later one. Any failed op, failed output check, or op-level count that
// differs between sets for the same seed is a FAIL too.
func runAA(seed int64, seconds, sets int) error {
	type cell struct{ values [][]float64 } // [set][run]
	cells := make(map[string]*cell)
	key := func(w, m string) string { return w + "/" + m }
	counts := make(map[string]map[string]int64) // workload/seed -> first set's counts
	ok := true
	for set := 0; set < sets; set++ {
		for _, w := range bench.Workloads {
			for r := 0; r < aaRuns; r++ {
				s := seed + int64(r)
				res, err := bench.Run(w.Name, s, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
				}
				fmt.Printf("set %d %s seed %d: attempted %d failed %d checks %s\n",
					set+1, w.Name, s, res.Attempted, res.Failed, passFail(res.Correct))
				if !res.Correct || res.Failed > 0 {
					ok = false
					for _, p := range res.Problems {
						fmt.Printf("  PROBLEM: %s\n", p)
					}
				}
				ck := fmt.Sprintf("%s/%d", w.Name, s)
				if first, seen := counts[ck]; !seen {
					counts[ck] = res.Counts
				} else {
					for name, v := range res.Counts {
						if first[name] != v {
							ok = false
							fmt.Printf("  NOT DETERMINISTIC: %s %s = %d, first set counted %d\n", ck, name, v, first[name])
						}
					}
				}
				for _, d := range bench.EndToEnd {
					c := cells[key(w.Name, d.Name)]
					if c == nil {
						c = &cell{values: make([][]float64, sets)}
						cells[key(w.Name, d.Name)] = c
					}
					c.values[set] = append(c.values[set], res.Metrics[d.Name].Value)
				}
			}
		}
	}
	fmt.Printf("\n%-14s %-14s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median[1]", "median[last]", "spread1", "spreadN", "drift", "bound", "verdict")
	for _, w := range bench.Workloads {
		for _, d := range bench.EndToEnd {
			c := cells[key(w.Name, d.Name)]
			q1, m1, q3 := quartiles(c.values[0])
			spread1 := (q3 - q1) / m1
			worstSpread, worstDrift, mLast := spread1, 0.0, m1
			for set := 1; set < sets; set++ {
				a, m, b := quartiles(c.values[set])
				worstSpread = math.Max(worstSpread, (b-a)/m)
				worstDrift = math.Max(worstDrift, worsening(d, m1, m))
				mLast = m
			}
			pass := worstDrift <= d.Bound && (d.Name == "setup_s" || worstSpread <= d.Bound)
			ok = ok && pass
			fmt.Printf("%-14s %-14s %14.4f %14.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.Name, d.Name, m1, mLast, spread1*100, worstSpread*100, worstDrift*100, d.Bound*100, passFail(pass))
		}
	}
	if !ok {
		return fmt.Errorf("A/A check failed")
	}
	return nil
}
