// wrentrace analyzes a saved packet trace offline — Wren's original
// workflow before the online analyzer, and the natural consumer of traces
// archived by the repository.
//
//	wrentrace -local hostA trace.wrec
//	wrentrace -metrics-addr 127.0.0.1:8090 -local hostA big-trace.wrec
package main

import (
	"flag"
	"fmt"
	"os"

	"freemeasure/internal/obs"
	"freemeasure/internal/pcap"
	"freemeasure/internal/wren"
)

func main() {
	var (
		local    = flag.String("local", "", "name of the host the trace was captured on (default: first record's Local)")
		minTrain = flag.Int("min-train", 0, "minimum packets per train (0 = default)")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address while the trace is analyzed (for profiling large traces)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wrentrace [-local NAME] [-metrics-addr ADDR] TRACE_FILE")
		os.Exit(2)
	}
	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "wrentrace: "+format+"\n", args...)
		os.Exit(1)
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		maddr, err := obs.Serve(*metrics, reg, nil)
		if err != nil {
			fatalf("metrics-addr: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrentrace: metrics/pprof on http://%s/metrics\n", maddr)
	}
	records, err := pcap.LoadTrace(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	if len(records) == 0 {
		fatalf("empty trace")
	}
	name := *local
	if name == "" {
		name = records[0].Flow.Local
	}
	m := wren.NewMonitor(name, wren.Config{
		Scan: wren.ScanConfig{MinTrain: *minTrain},
	})
	if reg != nil {
		m.SetMetrics(wren.NewMonitorMetrics(reg))
	}
	m.FeedAll(records)
	// Close any trailing runs: offline analysis sees the whole trace.
	last := records[len(records)-1].At
	m.Feed(pcap.Record{At: last + 1_000_000_000_000, Dir: pcap.In, IsAck: true,
		Flow: pcap.FlowKey{Local: name, Remote: "\x00eof"}})
	n := m.Poll()

	fmt.Printf("%d records, %d observations\n", len(records), n)
	for _, po := range m.Scan() {
		if po.Remote == "\x00eof" || po.Estimate.Count == 0 {
			continue
		}
		est := po.Estimate
		fmt.Printf("%s -> %s: %.2f Mbit/s (%s, bracket %.2f..%.2f, %d obs, quality %.2f), latency %.3f ms\n",
			name, po.Remote, est.Mbps, est.Kind, est.Lo, est.Hi, est.Count, est.Quality, po.LatencyMs)
		for _, o := range m.Observations(po.Remote, 0) {
			fmt.Printf("  t=%.3fs isr=%8.2f congested=%v len=%d\n",
				float64(o.At)/1e9, o.RateMbps, o.Congested, o.TrainLen)
		}
	}
}
