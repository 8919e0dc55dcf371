package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// PerLayer is the traced run's metric set: single layers, no bounds. Each
// says (in cmd/meshbench/README.md) which end-to-end metric it should
// move on which workload. Every traced run emits every one of them: the
// traced run always walks all four workloads at a reduced fixed size, so
// the layer table is complete whichever -workload it was started for;
// -workload only selects whose trace overhead is reported.
var PerLayer = []MetricDef{
	// isolated drives
	{Name: "ethernet.encode_ns_64", Unit: "ns", Better: "lower"},
	{Name: "ethernet.encode_ns_1500", Unit: "ns", Better: "lower"},
	{Name: "ethernet.unmarshal_ns_64", Unit: "ns", Better: "lower"},
	{Name: "ethernet.unmarshal_ns_1500", Unit: "ns", Better: "lower"},
	{Name: "ethernet.parse_header_ns", Unit: "ns", Better: "lower"},
	{Name: "vttif.addframe_ns", Unit: "ns", Better: "lower"},
	{Name: "vttif.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "vttif.agg_update_us", Unit: "us", Better: "lower"},
	{Name: "wren.feedall_ns_per_record", Unit: "ns", Better: "lower"},
	// relay_small pass
	{Name: "vnet.inject_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "vnet.hop_us_p50", Unit: "us", Better: "lower"},
	{Name: "vnet.tcp_rw_syscalls_per_frame", Unit: "count", Better: "lower"},
	{Name: "vnet.transport_residual_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "vnet.col_full_cpu_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "vnet.col_wren_cpu_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "vnet.col_bare_cpu_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "wren.feed_cpu_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "obs.instr_cpu_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "vnet.measure_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "vnet.feed_dropped_ratio", Unit: "ratio", Better: "lower"},
	// bulk_duplex pass (TCP link, then the same over virtual UDP)
	{Name: "vnet.bulk_inject_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "vnet.bulk_hop_us_p50", Unit: "us", Better: "lower"},
	{Name: "vnet.bulk_tcp_rw_syscalls_per_frame", Unit: "count", Better: "lower"},
	{Name: "vnet.bulk_transport_residual_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "vnet.udp_frames_per_s", Unit: "1/s", Better: "higher"},
	{Name: "vnet.udp_cpu_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "vnet.udp_loss_ratio", Unit: "ratio", Better: "lower"},
	// adapt_shift pass
	{Name: "coord.refresh_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "vnet.report_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "control.sense_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "control.cycle_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "vadapt.decide_warm_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "vadapt.decide_full_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "control.adapt_full_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "control.cpu_ms_per_cycle", Unit: "ms", Better: "lower"},
	{Name: "control.applied_ratio", Unit: "ratio", Better: "higher"},
	{Name: "control.gate_skipped_ratio", Unit: "ratio", Better: "lower"},
	{Name: "vnet.apply_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "vnet.apply_steps_per_plan", Unit: "count", Better: "lower"},
	{Name: "vnet.flood_frames_per_migrate", Unit: "count", Better: "lower"},
	{Name: "vnet.ttl_expired_per_cycle", Unit: "count", Better: "lower"},
	{Name: "vnet.probe_loss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "vnet.burst_loss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.adapt_phase_sum_ratio", Unit: "ratio", Better: "higher"},
	// measure_feed pass
	{Name: "wren.forward_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wren.poll_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wren.scan_us_p50", Unit: "us", Better: "lower"},
	{Name: "wren.observations_per_krecord", Unit: "count", Better: "higher"},
	{Name: "wren.est_rel_err", Unit: "ratio", Better: "lower"},
	{Name: "coord.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "coord.fileput_us_p50", Unit: "us", Better: "lower"},
	{Name: "coord.buildmap_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "coord.buildmap_ms_last", Unit: "ms", Better: "lower"},
	{Name: "coord.fetch_parse_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "coord.store_records", Unit: "count", Better: "lower"},
	{Name: "bench.feed_phase_sum_ratio", Unit: "ratio", Better: "higher"},
	// the process and the tracer itself
	{Name: "proc.max_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "proc.goroutines_leaked", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// Traced-pass sizes: about an eighth of the end-to-end run each.
func tracedRelaySizes(seconds int) relaySizes {
	return relaySizes{warmFrames: min(10000, 1000*seconds), windows: 4, window: time.Duration(seconds) * time.Second / 32}
}

func tracedAdaptSizes(seconds int) adaptSizes {
	return adaptSizes{warmOps: 16, ops: max(regimeEvery, seconds*8), probe: true}
}

func tracedFeedSizes(seconds int, tr *feedTrace) feedSizes {
	n := len(tr.chunks)
	return feedSizes{warmEpochs: n, epochs: max(1, seconds/5) * n}
}

// TraceOptions configures the traced run's side outputs.
type TraceOptions struct {
	// TmpDir is where the mirror FileStore's log lives for the run; it is
	// created by the caller and removed by the caller.
	TmpDir string
	// Out, when non-nil, receives the span trace (one JSON object per
	// line) after the last pass.
	Out io.Writer
	// OverheadForAll measures the tracing overhead of every workload (an
	// extra untraced pass each), not just the one the run was started for.
	OverheadForAll bool
}

// RunTraced produces the per-layer table. Spans are recorded in memory by
// the benchmark's own code around each call into a layer; nothing in the
// packages under test is switched or hooked.
func RunTraced(workload string, seed int64, seconds int, opt TraceOptions) (*Result, error) {
	known := false
	for _, w := range Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return nil, fmt.Errorf("bench: unknown workload %q", workload)
	}
	res := &Result{Workload: workload, Seed: seed, Correct: true, Counts: map[string]int64{}}
	baseGoroutines := runtime.NumGoroutine()
	tr := NewTracer()
	trace := genFeedTrace(seed)
	iso := driveIsolated(trace)
	res.set("ethernet.encode_ns_64", "ns", iso.encode64, 0)
	res.set("ethernet.encode_ns_1500", "ns", iso.encode1500, 0)
	res.set("ethernet.unmarshal_ns_64", "ns", iso.unmarshal64, 0)
	res.set("ethernet.unmarshal_ns_1500", "ns", iso.unmarshal1500, 0)
	res.set("ethernet.parse_header_ns", "ns", iso.parseHeader, 0)
	res.set("vttif.addframe_ns", "ns", iso.addFrame, 0)
	res.set("vttif.snapshot_us", "us", iso.snapshotUs, 0)
	res.set("vttif.agg_update_us", "us", iso.aggUpdateUs, 0)
	res.set("wren.feedall_ns_per_record", "ns", iso.feedAllPerRecord, 0)

	want := func(w string) bool { return opt.OverheadForAll || w == workload }
	res.Overheads = make(map[string]float64)
	res.SelfMs = make(map[string]map[string]float64)
	if err := tracedRelay(res, tr, iso, want, seed, seconds); err != nil {
		return nil, err
	}
	if err := tracedAdapt(res, tr, want(AdaptShift), seed, seconds, opt.TmpDir); err != nil {
		return nil, err
	}
	if err := tracedFeed(res, tr, trace, want(MeasureFeed), seconds, opt.TmpDir); err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead_ratio", "ratio", res.Overheads[workload], 0)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("proc.max_rss_mb", "MB", maxRSSMB(), 0)
	res.set("proc.gc_pause_ms_total", "ms", float64(ms.PauseTotalNs)/1e6, int(ms.NumGC))
	// Connection goroutines unwind asynchronously after Close returns.
	waitFor(2*time.Second, 10*time.Millisecond, func() bool { return runtime.NumGoroutine() <= baseGoroutines })
	leaked := runtime.NumGoroutine() - baseGoroutines
	res.set("proc.goroutines_leaked", "count", float64(max(leaked, 0)), 0)
	if leaked > 0 {
		res.problem("%d goroutines outlived teardown", leaked)
	}
	res.Counts["spans"] = int64(tr.Len())
	if opt.Out != nil {
		if err := tr.Write(opt.Out); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}

// relayFrameCost prices one delivered frame from the isolated drives: one
// encode at the sender, a header parse at each receiving hop, one
// unmarshal at delivery, one VTTIF count, and the two capture records per
// hop (departure, ACK) the Wren feed ingests.
func relayFrameCost(iso isolated, payload, hops int) float64 {
	enc, dec := iso.encode64, iso.unmarshal64
	if payload > 64 {
		enc, dec = iso.encode1500, iso.unmarshal1500
	}
	ns := enc + dec + float64(hops)*iso.parseHeader + iso.addFrame + float64(2*hops)*iso.feedAllPerRecord
	return ns / 1e3
}

func tracedRelay(res *Result, tr *Tracer, iso isolated, want func(string) bool, seed int64, seconds int) error {
	sz := tracedRelaySizes(seconds)
	column := func(opt relayOpt, t *Tracer) (relayWindows, error) {
		return relayColumn(opt, sz, seed, t, res)
	}
	small := relayOptFor(RelaySmall)
	mark := tr.Len()
	full, err := column(small, tr)
	if err != nil {
		return err
	}
	st := foldSpans(tr.Since(mark))
	small.instr = instrWren
	wrenCol, err := column(small, nil)
	if err != nil {
		return err
	}
	small.instr = instrBare
	bare, err := column(small, nil)
	if err != nil {
		return err
	}
	res.set("vnet.inject_ns_p50", "ns", st.p50("vnet.inject")*1e6, len(st.durMs["vnet.inject"]))
	res.set("vnet.hop_us_p50", "us", full.hopUsP50, 0)
	res.set("vnet.tcp_rw_syscalls_per_frame", "count", full.sysPerFrame, 0)
	res.set("vnet.transport_residual_us_per_frame", "us", full.cpuUsPerFrm-relayFrameCost(iso, 64, 2), 0)
	res.set("vnet.col_full_cpu_us_per_frame", "us", full.cpuUsPerFrm, 0)
	res.set("vnet.col_wren_cpu_us_per_frame", "us", wrenCol.cpuUsPerFrm, 0)
	res.set("vnet.col_bare_cpu_us_per_frame", "us", bare.cpuUsPerFrm, 0)
	res.set("wren.feed_cpu_us_per_frame", "us", wrenCol.cpuUsPerFrm-bare.cpuUsPerFrm, 0)
	res.set("obs.instr_cpu_us_per_frame", "us", full.cpuUsPerFrm-wrenCol.cpuUsPerFrm, 0)
	res.set("vnet.measure_overhead_ratio", "ratio", full.cpuUsPerFrm/bare.cpuUsPerFrm-1, 0)
	res.set("vnet.feed_dropped_ratio", "ratio", full.feedDropped, 0)

	bulk := relayOptFor(BulkDuplex)
	mark = tr.Len()
	tcp, err := column(bulk, tr)
	if err != nil {
		return err
	}
	st = foldSpans(tr.Since(mark))
	bulk.udp = true
	// Lossy by design: its losses are a metric, not failed ops or checks.
	udp, err := relayColumn(bulk, sz, seed, nil, &Result{})
	if err != nil {
		return err
	}
	res.set("vnet.bulk_inject_ns_p50", "ns", st.p50("vnet.inject")*1e6, len(st.durMs["vnet.inject"]))
	res.set("vnet.bulk_hop_us_p50", "us", tcp.hopUsP50, 0)
	res.set("vnet.bulk_tcp_rw_syscalls_per_frame", "count", tcp.sysPerFrame, 0)
	res.set("vnet.bulk_transport_residual_us_per_frame", "us",
		tcp.cpuUsPerFrm-relayFrameCost(iso, 1500, 1), 0)
	res.set("vnet.udp_frames_per_s", "1/s", udp.framesPerS, 0)
	res.set("vnet.udp_cpu_us_per_frame", "us", udp.cpuUsPerFrm, 0)
	res.set("vnet.udp_loss_ratio", "ratio", udp.lossRatio, 0)

	// Tracing overhead: the same column again with the tracer off.
	for w, tracedCol := range map[string]relayWindows{RelaySmall: full, BulkDuplex: tcp} {
		if !want(w) {
			continue
		}
		plain, err := column(relayOptFor(w), nil)
		if err != nil {
			return err
		}
		res.Overheads[w] = tracedCol.cpuUsPerFrm/plain.cpuUsPerFrm - 1
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func tracedAdapt(res *Result, tr *Tracer, wantOverhead bool, seed int64, seconds int, tmp string) error {
	sz := tracedAdaptSizes(seconds)
	mirror := ""
	if tmp != "" {
		mirror = filepath.Join(tmp, "adapt-mirror.log")
	}
	// Both passes mirror their Puts into the FileStore, so that the overhead
	// is the tracer's alone.
	pass := func(t *Tracer) (*adaptSystem, error) {
		os.Remove(mirror) // a leftover log would replay into the store
		sys, err := buildAdapt(sz, seed, mirror, nil)
		if err != nil {
			return nil, err
		}
		measureAdapt(sys, sz, res, t)
		sys.close()
		return sys, nil
	}
	mark := tr.Len()
	sys, err := pass(tr)
	if err != nil {
		return err
	}
	spans := tr.Since(mark)
	fs := foldSpans(spans)
	res.SelfMs[AdaptShift] = fs.selfMs
	st := &sys.st
	ops := float64(st.ops)
	res.set("coord.refresh_ms_p50", "ms", fs.p50("coord.refresh"), len(fs.durMs["coord.refresh"]))
	res.set("vnet.report_ms_p50", "ms", fs.p50("vnet.report"), len(fs.durMs["vnet.report"]))
	res.set("control.sense_ms_p50", "ms", fs.p50("control.sense"), len(fs.durMs["control.sense"]))
	res.set("control.cycle_ms_p50", "ms", fs.p50("control.cycle"), len(fs.durMs["control.cycle"]))
	res.set("vadapt.decide_warm_ms_p50", "ms", median(st.decideWarmMs), len(st.decideWarmMs))
	res.set("vadapt.decide_full_ms_p50", "ms", median(st.decideFullMs), len(st.decideFullMs))
	res.set("control.adapt_full_ms_p50", "ms", median(st.fullUs)/1e3, len(st.fullUs))
	res.set("control.cpu_ms_per_cycle", "ms", ratio(float64(st.cpu)/1e6, ops), st.ops)
	res.set("control.applied_ratio", "ratio", ratio(float64(st.applied), ops), st.ops)
	res.set("control.gate_skipped_ratio", "ratio", ratio(float64(st.skippedGate), ops), st.ops)
	res.set("vnet.apply_ms_p50", "ms", fs.p50("vnet.apply"), len(fs.durMs["vnet.apply"]))
	res.set("vnet.apply_steps_per_plan", "count", ratio(float64(st.applySteps), float64(st.applied)), int(st.applied))
	res.set("vnet.flood_frames_per_migrate", "count", ratio(float64(st.flooded), float64(st.migrations)), int(st.migrations))
	res.set("vnet.ttl_expired_per_cycle", "count", ratio(float64(st.ttlExpired), ops), st.ops)
	res.set("vnet.probe_loss_ratio", "ratio", ratio(float64(st.probeLost), float64(st.probeSent)), int(st.probeSent))
	res.set("vnet.burst_loss_ratio", "ratio", 1-ratio(float64(st.burstRecv), float64(st.burstSent)), int(st.burstSent))
	sum := phaseSumRatio(spans, "bench.adapt")
	res.set("bench.adapt_phase_sum_ratio", "ratio", sum, st.ops)
	if sum < 0.9 || sum > 1.1 {
		res.problem("adapt phase spans sum to %.3f of the op, outside 10%%", sum)
	}
	if wantOverhead {
		tracedMean := mean(append(append([]float64(nil), st.warmUs...), st.fullUs...))
		plain, err := pass(nil)
		if err != nil {
			return err
		}
		if plain.st.applied != st.applied {
			res.problem("applied-plan count not deterministic: %d traced, %d untraced", st.applied, plain.st.applied)
		}
		plainMean := mean(append(append([]float64(nil), plain.st.warmUs...), plain.st.fullUs...))
		res.Overheads[AdaptShift] = tracedMean/plainMean - 1
	}
	return nil
}

func tracedFeed(res *Result, tr *Tracer, trace *feedTrace, wantOverhead bool, seconds int, tmp string) error {
	sz := tracedFeedSizes(seconds, trace)
	mirror := ""
	if tmp != "" {
		mirror = filepath.Join(tmp, "feed-mirror.log")
	}
	pass := func(t *Tracer) (*feedSystem, error) {
		os.Remove(mirror)
		sys, err := buildFeed(trace, sz, mirror, nil)
		if err != nil {
			return nil, err
		}
		measureFeed(sys, sz, res, t)
		sys.close()
		return sys, nil
	}
	mark := tr.Len()
	sys, err := pass(tr)
	if err != nil {
		return err
	}
	spans := tr.Since(mark)
	fs := foldSpans(spans)
	res.SelfMs[MeasureFeed] = fs.selfMs
	st := &sys.st
	res.set("wren.forward_ms_p50", "ms", median(st.forwardMs), len(st.forwardMs))
	res.set("wren.poll_ms_p50", "ms", fs.p50("wren.poll"), len(fs.durMs["wren.poll"]))
	res.set("wren.scan_us_p50", "us", fs.p50("wren.scan")*1e3, len(fs.durMs["wren.scan"]))
	res.set("wren.observations_per_krecord", "count", ratio(float64(st.observations)*1e3, float64(st.records)), st.epochs)
	res.set("wren.est_rel_err", "ratio", st.meanEstRelErr(), st.epochs)
	res.set("coord.put_us_p50", "us", fs.p50("coord.put")*1e3, len(fs.durMs["coord.put"]))
	res.set("coord.fileput_us_p50", "us", fs.p50("coord.fileput")*1e3, len(fs.durMs["coord.fileput"]))
	builds := fs.durMs["coord.buildmap"]
	last := 0.0
	if len(builds) > 0 {
		last = builds[len(builds)-1]
	}
	res.set("coord.buildmap_ms_last", "ms", last, 1)
	res.set("coord.buildmap_ms_p50", "ms", fs.p50("coord.buildmap"), len(builds))
	res.set("coord.fetch_parse_ms_p50", "ms", fs.p50("coord.fetch_parse"), len(fs.durMs["coord.fetch_parse"]))
	res.set("coord.store_records", "count", float64(st.storeRecords), 0)
	sum := phaseSumRatio(spans, "bench.epoch")
	res.set("bench.feed_phase_sum_ratio", "ratio", sum, st.epochs)
	if sum < 0.9 || sum > 1.1 {
		res.problem("feed phase spans sum to %.3f of the epoch, outside 10%%", sum)
	}
	res.Counts["feed_records"] = int64(st.records)
	res.Counts["feed_observations"] = st.observations
	if wantOverhead {
		plain, err := pass(nil)
		if err != nil {
			return err
		}
		if plain.st.records != st.records || plain.st.observations != st.observations {
			res.problem("feed pass not deterministic: %d/%d records, %d/%d observations",
				st.records, plain.st.records, st.observations, plain.st.observations)
		}
		res.Overheads[MeasureFeed] = ratio(st.wall.Seconds(), plain.st.wall.Seconds()) - 1
	}
	return nil
}
