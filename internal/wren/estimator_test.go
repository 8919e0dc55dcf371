package wren

import "testing"

func TestLatencyEstimator(t *testing.T) {
	l := NewLatencyEstimator(EstimatorConfig{})
	if _, ok := l.RTTMs(); ok {
		t.Fatal("empty latency estimator returned a value")
	}
	l.Add(1, 2_000_000) // 2 ms
	l.Add(2, 1_500_000)
	l.Add(3, 3_000_000)
	rtt, ok := l.RTTMs()
	if !ok || rtt != 1.5 {
		t.Fatalf("RTT = %v ok=%v, want 1.5 ms", rtt, ok)
	}
	lat, _ := l.LatencyMs()
	if lat != 0.75 {
		t.Fatalf("latency = %v, want 0.75 ms", lat)
	}
}

func TestLatencyEstimatorEviction(t *testing.T) {
	l := NewLatencyEstimator(EstimatorConfig{Window: 2, MaxAge: 1000})
	l.Add(0, 1_000_000)
	l.Add(2000, 5_000_000) // first evicted by age
	rtt, _ := l.RTTMs()
	if rtt != 5 {
		t.Fatalf("RTT = %v, want 5 (old min evicted)", rtt)
	}
	l.Add(2001, 4_000_000)
	l.Add(2002, 3_000_000) // window 2: the 5 ms sample evicted by count
	rtt, _ = l.RTTMs()
	if rtt != 3 {
		t.Fatalf("RTT = %v, want 3", rtt)
	}
}
