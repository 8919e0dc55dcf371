package vttif

import (
	"sync"
	"sync/atomic"
	"testing"

	"freemeasure/internal/ethernet"
)

// mutexLocal is the pre-striping accumulator (one lock around one map),
// kept here as the contention baseline the striped Local is measured
// against in the BENCH_VTTIF.json table.
type mutexLocal struct {
	mu    sync.Mutex
	bytes map[Pair]uint64
}

func (l *mutexLocal) addFrame(src, dst ethernet.MAC, wireBytes int) {
	l.mu.Lock()
	l.bytes[Pair{src, dst}] += uint64(wireBytes)
	l.mu.Unlock()
}

func BenchmarkLocalAddFrameSingleMutex(b *testing.B) {
	l := &mutexLocal{bytes: make(map[Pair]uint64)}
	var nextWriter atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		src := ethernet.VMMAC(int(nextWriter.Add(1)))
		dsts := [4]ethernet.MAC{ethernet.VMMAC(100), ethernet.VMMAC(101), ethernet.VMMAC(102), ethernet.VMMAC(103)}
		i := 0
		for pb.Next() {
			l.addFrame(src, dsts[i&3], 1500)
			i++
		}
	})
}

func BenchmarkLocalAddFrameStriped(b *testing.B) {
	l := NewLocal()
	var nextWriter atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		src := ethernet.VMMAC(int(nextWriter.Add(1)))
		dsts := [4]ethernet.MAC{ethernet.VMMAC(100), ethernet.VMMAC(101), ethernet.VMMAC(102), ethernet.VMMAC(103)}
		i := 0
		for pb.Next() {
			l.AddFrame(src, dsts[i&3], 1500)
			i++
		}
	})
}

// millionFlowMatrix builds one local report holding 1M distinct pairs with
// a heavy-tailed rate distribution: every 4096th pair carries 1 MB/s, the
// rest trickle at 10 B/s.
func millionFlowMatrix() map[Pair]uint64 {
	local := make(map[Pair]uint64, 1<<20)
	n := 0
	for s := 0; s < 1024; s++ {
		src := ethernet.VMMAC(s)
		for d := 0; d < 1024; d++ {
			b := uint64(10)
			if n%4096 == 0 {
				b = 1 << 20
			}
			local[Pair{src, ethernet.VMMAC(4096 + d)}] = b
			n++
		}
	}
	return local
}

// BenchmarkAggregatorUpdateSketched1M fuses a 1M-flow local matrix per op,
// far past the pair cap, with the table held to 512 pairs (the size the
// committed baseline was taken at) and the shipped 4096×4 sketch. The
// point of the fence: exact per-pair state would be O(pairs) in memory;
// here the timed section touches only the sketch and the retained table,
// so bytes/op stays bounded no matter the flow count. Time is O(flows ×
// log cap): each cold pair costs a sketch add, and an admitted one a heap
// replacement.
func BenchmarkAggregatorUpdateSketched1M(b *testing.B) {
	benchmarkUpdate1M(b, 512)
}

// BenchmarkAggregatorUpdateShipped1M is the same report against the
// shipped configuration, NewAggregator(Config{}) with the 16 384-pair cap.
func BenchmarkAggregatorUpdateShipped1M(b *testing.B) {
	benchmarkUpdate1M(b, maxPairs)
}

func benchmarkUpdate1M(b *testing.B, pairCap int) {
	local := millionFlowMatrix()
	a := NewAggregator(Config{})
	a.maxPairs = pairCap
	// Converge admission churn before measuring.
	for i := 0; i < 3; i++ {
		if err := a.Update("d1", local, 1); err != nil {
			b.Fatal(err)
		}
	}
	a.Deltas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Update("d1", local, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := len(a.rates); n > pairCap {
		b.Fatalf("sketched state unbounded: %d retained pairs", n)
	}
}

// BenchmarkAggregatorUpdateExact10k is the contrast point below the pair
// cap, where every pair is held exactly and no sketch exists.
func BenchmarkAggregatorUpdateExact10k(b *testing.B) {
	local := make(map[Pair]uint64, 10000)
	for s := 0; s < 100; s++ {
		for d := 0; d < 100; d++ {
			local[Pair{ethernet.VMMAC(s), ethernet.VMMAC(200 + d)}] = uint64(1000 + s + d)
		}
	}
	a := NewAggregator(Config{})
	// Run the EWMA to its float64 fixed point so the timed section
	// exercises the steady state (dirty check skipping the rebuild).
	for i := 0; i < 200; i++ {
		if err := a.Update("d1", local, 1); err != nil {
			b.Fatal(err)
		}
	}
	a.Deltas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Update("d1", local, 1); err != nil {
			b.Fatal(err)
		}
	}
}
