package bench

import (
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/pcap"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

// This file drives single layers in isolation — no sockets, no goroutines
// — to price the per-frame and per-record steps the relay and feed
// workloads are made of. The relay residual (CPU per frame minus these)
// is what cannot be seen from outside: syscalls, scheduling, the TCP stack.

// sink keeps the compiler from discarding the measured calls.
var sink struct {
	frame *ethernet.Frame
	hdr   ethernet.Header
	n     int
}

// nsPerCall runs fn in `batches` batches of n calls (after one discarded
// warm-up batch) and returns the median batch's cost per call in
// nanoseconds.
func nsPerCall(batches, n int, fn func()) float64 {
	per := make([]float64, 0, batches)
	for b := -1; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if b >= 0 {
			per = append(per, float64(time.Since(t0))/float64(n))
		}
	}
	return median(per)
}

// isolated holds the isolated-drive results, all in nanoseconds per call
// unless the name says otherwise.
type isolated struct {
	encode64, encode1500       float64
	unmarshal64, unmarshal1500 float64
	parseHeader                float64
	addFrame                   float64
	snapshotUs                 float64
	aggUpdateUs                float64
	feedAllPerRecord           float64
}

func driveIsolated(tr *feedTrace) isolated {
	const batches, n = 9, 20000
	var out isolated
	buf := make([]byte, ethernet.HeaderLen+ethernet.MaxPayload)
	for _, size := range []int{64, ethernet.MaxPayload} {
		f := vmFrame(0, 1, make([]byte, size))
		wire := buf[:f.WireLen()]
		enc := nsPerCall(batches, n, func() {
			if f.EncodeTo(wire) != nil {
				sink.n++
			}
		})
		dec := nsPerCall(batches, n, func() { sink.frame, _ = ethernet.Unmarshal(wire) })
		if size == 64 {
			out.encode64, out.unmarshal64 = enc, dec
		} else {
			out.encode1500, out.unmarshal1500 = enc, dec
		}
	}
	out.parseHeader = nsPerCall(batches, n, func() { sink.hdr, _ = ethernet.ParseHeader(buf) })

	local := vttif.NewLocal()
	src, dst := ethernet.VMMAC(0), ethernet.VMMAC(1)
	out.addFrame = nsPerCall(batches, n, func() { local.AddFrame(src, dst, 78) })

	// Snapshot and aggregator update at adapt_shift's matrix size.
	fill := func() {
		for i := 0; i < adaptVMs; i++ {
			local.AddFrame(ethernet.VMMAC(i), ethernet.VMMAC((i+1)%adaptVMs), 1514)
		}
	}
	agg := vttif.NewAggregator(vttif.Config{Alpha: 1, HoldUpdates: 1})
	var snapNs, updNs []float64
	for i := 0; i < 2000; i++ {
		fill()
		t0 := time.Now()
		m := local.Snapshot()
		t1 := time.Now()
		m[vttif.Pair{Src: src, Dst: dst}] += uint64(i) // a new rate each round, as a shift would bring
		if agg.Update("h1", m, burstInterval.Seconds()) != nil {
			sink.n++
		}
		snapNs = append(snapNs, float64(t1.Sub(t0)))
		updNs = append(updNs, float64(time.Since(t1)))
	}
	out.snapshotUs = median(snapNs) / 1e3
	out.aggUpdateUs = median(updNs) / 1e3

	// Monitor.FeedAll over one pass of the trace, one path.
	mon := wren.NewMonitor("origin", wren.Config{})
	var perRec []float64
	for c := range tr.chunks {
		recs := append([]pcap.Record(nil), tr.chunks[c]...)
		for i := range recs {
			recs[i].Flow = pcap.FlowKey{Local: "origin", Remote: "remote"}
		}
		if len(recs) == 0 {
			continue
		}
		t0 := time.Now()
		mon.FeedAll(recs)
		perRec = append(perRec, float64(time.Since(t0))/float64(len(recs)))
		mon.Poll() // keep pending state bounded, as the repository's loop does
	}
	out.feedAllPerRecord = median(perRec)
	return out
}
