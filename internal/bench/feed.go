package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"freemeasure/internal/pcap"
	"freemeasure/internal/simnet"
	"freemeasure/internal/tcpsim"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// measure_feed: the measurement plane end to end with no vnet in the way.
// One seeded simulator trace (dumbbell, 100 Mbit/s bottleneck, 40 Mbit/s
// CBR cross traffic, four loops of the paper's Figure 2 message
// application, ≈55 virtual seconds, ≈33 k records) is replicated over 8
// origins x 4 remotes = 32 paths. Each epoch
// ships the next two virtual seconds of every path through a
// wren.Forwarder over loopback TCP into a wren.Repository, analyses it
// (PollAll, Scan), stores what changed, and republishes and refetches the
// bandwidth map. Freshness is the time from the last Flush returning to a
// parsed map being accepted.

const (
	feedOrigins   = 8
	feedRemotes   = 4
	feedChunkSecs = 2
	feedTruthMbps = 60 // bottleneck minus cross traffic
	// feedAppLoops fixes the trace by work, not by time: the application's
	// last phase has seeded random spacings, so a cut at 60 virtual seconds
	// caught three or four of its 3 MB bursts depending on the seed (29 k or
	// 33 k records). Four whole loops are the same bytes under every seed.
	feedAppLoops = 4
)

type feedSizes struct {
	warmEpochs int
	epochs     int
}

// feedRounds is two: the workload's length is its point. MemStore keeps every
// record and BuildMap scans them all, so an epoch's cost climbs with the
// epochs before it; a round has to run some six hundred epochs in one system
// for that climb to weigh in the numbers, and two such rounds are what a run
// has time for.
const feedRounds = 2

// feedEpochsPerSecond converts -seconds into the fixed epoch count; 78 is
// what gives each of the two rounds its six hundred epochs at the default
// 16 s. An epoch (≈38 k records) takes about 1/60 s on an empty store on the
// 2-core reference box and slows as the store fills, so a run measures for
// about 1.4x -seconds. The count is split evenly over the run's rounds, and
// both the warm-up and each round's share are whole passes over the trace, so
// every round sees the same mix of busy and quiet chunks.
const feedEpochsPerSecond = 78

func feedSizesFor(seconds int, tr *feedTrace) feedSizes {
	n := len(tr.chunks)
	passes := (seconds*feedEpochsPerSecond/feedRounds + n/2) / n
	return feedSizes{warmEpochs: 3 * n, epochs: max(1, passes) * n}
}

// feedTrace is the generated input: the template trace cut into chunks,
// with what one pass over it advances the clock and sequence space by.
type feedTrace struct {
	chunks   [][]pcap.Record // feedChunkSecs of virtual time each
	records  int
	seqSpan  int64 // bytes one pass of the trace sends
	timeSpan int64 // ns one pass covers
}

// figure2Phases is the paper's Figure 2 monitored application as
// internal/experiments runs it: three message-size phases with 0.1 s
// spacings, then a randomized-spacing phase.
func figure2Phases() []tcpsim.MessagePhase {
	return []tcpsim.MessagePhase{
		{Count: 20, Size: 20 << 10, Spacing: simnet.Milliseconds(100)},
		{Count: 10, Size: 50 << 10, Spacing: simnet.Milliseconds(100), Pause: simnet.Seconds(2)},
		{Count: 6, Size: 500 << 10, Spacing: simnet.Milliseconds(100), Pause: simnet.Seconds(2)},
		{Count: 20, Size: 50 << 10, Spacing: simnet.Milliseconds(50),
			SpacingJitter: simnet.Milliseconds(300), Pause: simnet.Seconds(2)},
	}
}

// feedAppSeed seeds the simulated application's jittered spacings. It is a
// constant: the seeded jitter decides where the 3 MB bursts fall against
// the 2 s chunk grid, and with a per-run seed that alone moved lat_p90_us
// by ±10 % between seeds (p90 sits at the edge between burst chunks and
// quiet ones). The run's seed picks the chunk a pass starts on instead:
// every pass still holds exactly the same chunks.
const feedAppSeed = 2006

// genFeedTrace runs the simulator once and rotates the trace to start on
// chunk seed mod n. It happens before any clock the benchmark reports
// starts.
func genFeedTrace(seed int64) *feedTrace {
	sim := simnet.NewSim()
	d := simnet.NewDumbbell(sim, 2, 2, simnet.DumbbellConfig{
		AccessMbps:           100,
		AccessDelay:          simnet.Milliseconds(0.05),
		BottleneckMbps:       100,
		BottleneckDelay:      simnet.Milliseconds(0.2),
		BottleneckQueueBytes: 64 * 1000,
	})
	cross := tcpsim.NewCBR(d.Net, 99, d.Left[1], d.Right[1], 1500)
	cross.SetRateAt(0, 100-feedTruthMbps)
	conn := tcpsim.NewConnection(d.Net, 1, d.Left[0], d.Right[0], tcpsim.Config{MaxCwnd: 44})
	app := tcpsim.StartMessageApp(conn, figure2Phases(), 0, feedAppLoops, feedAppSeed)

	tr := &feedTrace{}
	add := func(r pcap.Record) {
		c := int(r.At / int64(simnet.Seconds(feedChunkSecs)))
		for len(tr.chunks) <= c {
			tr.chunks = append(tr.chunks, nil)
		}
		tr.chunks[c] = append(tr.chunks[c], r)
		tr.records++
		if end := r.Seq + int64(r.Len); end > tr.seqSpan {
			tr.seqSpan = end
		}
		if r.Ack > tr.seqSpan {
			tr.seqSpan = r.Ack
		}
	}
	d.Net.Host(d.Left[0]).AddCapture(func(pkt *simnet.Packet, at simnet.Time, dir simnet.Direction) {
		switch {
		case dir == simnet.Out && !pkt.IsAck:
			add(pcap.Record{At: int64(at), Dir: pcap.Out, Size: pkt.Size, Seq: pkt.Seq, Len: pkt.Len})
		case dir == simnet.In && pkt.IsAck:
			add(pcap.Record{At: int64(at), Dir: pcap.In, Size: pkt.Size, IsAck: true, Ack: pkt.Ack})
		}
	})
	// Run until the application has written its last message and the
	// connection has drained it (bounded: four loops take ≈55 s).
	for t := 1; t <= 600 && !(app.Done() && conn.Outstanding() == 0 && conn.Buffered() == 0); t++ {
		sim.RunUntil(simnet.Time(simnet.Seconds(float64(t))))
	}
	n := len(tr.chunks)
	chunkNs := int64(simnet.Seconds(feedChunkSecs))
	tr.timeSpan = int64(n) * chunkNs
	// Rotate: chunks before the new start move to the end, one pass later
	// in time and sequence space, so both keep rising through the pass.
	off := int(((seed % int64(n)) + int64(n)) % int64(n))
	rotated := make([][]pcap.Record, 0, n)
	for k := 0; k < n; k++ {
		src := (k + off) % n
		dt, dseq := -int64(off)*chunkNs, int64(0)
		if src < off {
			dt, dseq = dt+tr.timeSpan, tr.seqSpan
		}
		chunk := make([]pcap.Record, len(tr.chunks[src]))
		for i, r := range tr.chunks[src] {
			r.At += dt
			if r.IsAck {
				r.Ack += dseq
			} else {
				r.Seq += dseq
			}
			chunk[i] = r
		}
		rotated = append(rotated, chunk)
	}
	tr.chunks = rotated
	return tr
}

type feedSystem struct {
	trace      *feedTrace
	repo       *wren.Repository
	forwarders []*wren.Forwarder
	origins    []string
	remotes    []string
	plane      *mapPlane
	lastAt     map[coord.Path]int64
	scratch    [][]pcap.Record // per origin, refilled each epoch
	shipped    uint64          // records handed to forwarders so far

	st feedStats
}

type feedStats struct {
	epochs, failed  int
	records         uint64
	observations    int64
	wall            time.Duration // feed start → accepted, summed
	cpu             time.Duration
	freshUs         []float64
	forwardMs       []float64 // feed start → repository has every record
	storeRecords    int
	estRelErrSum    float64 // per-epoch map error, summed
	finalMapEntries int
}

func (s *feedSystem) close() {
	for _, f := range s.forwarders {
		f.Close()
	}
	s.repo.Close()
	s.plane.close()
}

func buildFeed(tr *feedTrace, sz feedSizes, mirrorPath string, tracer *Tracer) (*feedSystem, error) {
	s := &feedSystem{trace: tr, lastAt: make(map[coord.Path]int64)}
	// The estimator window Figure 2 uses: tight enough to track the cross
	// traffic instead of averaging across it.
	s.repo = wren.NewRepository(wren.Config{
		Estimator: wren.EstimatorConfig{Window: 48, MaxAge: 15_000_000_000},
	})
	addr, err := s.repo.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("repository listen: %w", err)
	}
	s.plane, err = newMapPlane(mirrorPath)
	if err != nil {
		s.repo.Close()
		return nil, err
	}
	for j := 0; j < feedRemotes; j++ {
		s.remotes = append(s.remotes, fmt.Sprintf("remote%d", j))
	}
	for i := 0; i < feedOrigins; i++ {
		origin := fmt.Sprintf("origin%d", i)
		fw, err := wren.DialRepository(addr, origin, 0)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial repository: %w", err)
		}
		s.origins = append(s.origins, origin)
		s.forwarders = append(s.forwarders, fw)
		s.scratch = append(s.scratch, nil)
	}
	for e := 0; e < sz.warmEpochs; e++ {
		s.epoch(e, tracer)
	}
	return s, nil
}

// fill writes epoch e's records for origin i into its scratch buffer: the
// template chunk once per remote, shifted so time and sequence numbers
// keep rising across passes over the trace.
func (s *feedSystem) fill(i, e int) []pcap.Record {
	chunk := s.trace.chunks[e%len(s.trace.chunks)]
	pass := int64(e / len(s.trace.chunks))
	dt, dseq := pass*s.trace.timeSpan, pass*s.trace.seqSpan
	buf := s.scratch[i][:0]
	for _, r := range chunk {
		r.At += dt
		if r.IsAck {
			r.Ack += dseq
		} else {
			r.Seq += dseq
		}
		r.Flow.Local = s.origins[i]
		for _, remote := range s.remotes {
			r.Flow.Remote = remote
			buf = append(buf, r)
		}
	}
	s.scratch[i] = buf
	return buf
}

// epoch ships one chunk of every path and brings the published map up to
// date with it.
func (s *feedSystem) epoch(e int, tracer *Tracer) {
	st := &s.st
	st.epochs++
	batches := make([][]pcap.Record, len(s.forwarders))
	n := 0
	for i := range s.forwarders {
		batches[i] = s.fill(i, e)
		n += len(batches[i])
	}
	ot := tracer.Op()
	cpu0 := cpuNow()
	t0 := nowNs()
	root := ot.Start("bench", "epoch")
	failed := false

	sp := ot.Start("wren", "feed")
	for i, fw := range s.forwarders {
		fw.FeedAll(batches[i])
		if err := fw.Flush(); err != nil {
			failed = true
		}
	}
	sp.End()
	flushed := nowNs()
	s.shipped += uint64(n)

	sp = ot.Start("wren", "ingest_wait")
	if !waitFor(5*time.Second, 100*time.Microsecond, func() bool {
		_, got := s.repo.Received()
		return got >= s.shipped
	}) {
		failed = true
	}
	sp.End()
	ingested := nowNs()

	sp = ot.Start("wren", "poll")
	obsn := s.repo.PollAll()
	sp.End()

	sp = ot.Start("wren", "scan")
	scan := s.repo.Scan()
	sp.End()

	sp = ot.Start("coord", "store")
	puts := 0
	for _, po := range scan {
		p := coord.Path{From: po.Origin, To: po.Remote}
		if po.At == 0 || s.lastAt[p] == po.At {
			continue
		}
		rec := coord.Record{Path: p, At: po.At, Mbps: po.Estimate.Mbps,
			Kind: po.Estimate.Kind.String(), Quality: po.Estimate.Quality}
		if po.LatencyOK {
			rec.LatencyMs = po.LatencyMs
		}
		if err := s.plane.put(ot, rec); err != nil {
			failed = true
			continue
		}
		s.lastAt[p] = po.At
		puts++
	}
	sp.End()

	if puts > 0 || s.plane.cur == nil {
		if err := s.plane.refresh(ot); err != nil {
			failed = true
		}
	}
	accepted := nowNs()
	root.End()
	ot.Finish()
	st.cpu += cpuNow() - cpu0
	relErr, entries := s.estRelErr()
	st.estRelErrSum += relErr
	st.finalMapEntries = entries

	if failed {
		st.failed++
	}
	st.records += uint64(n)
	st.observations += int64(obsn)
	st.wall += time.Duration(accepted - t0)
	st.freshUs = append(st.freshUs, float64(accepted-flushed)/1e3)
	st.forwardMs = append(st.forwardMs, float64(ingested-t0)/1e6)
}

// estRelErr is the accuracy axis: mean |published − truth| / truth over
// the accepted map's entries. It is sampled after every epoch and averaged
// over the run, not read once at the end: the estimate swings with the
// trace (≈64 Mbit/s right after a 3 MB burst, ≈93 Mbit/s once only small
// messages have been seen for a few seconds), so a single reading says
// which chunk the run happened to stop on.
// estRelErrLimit is the output check on accuracy. Once the estimator windows
// have filled, the time-averaged error is periodic in the trace: 0.1553 over
// every whole pass, whichever chunk the seed starts it on (a quarter of the
// epochs publish the ≈93 Mbit/s reading). The limit sits a tenth above that,
// inside the issue's 0.25.
const estRelErrLimit = 0.17

func (st *feedStats) meanEstRelErr() float64 { return st.estRelErrSum / float64(st.epochs) }

func (s *feedSystem) estRelErr() (float64, int) {
	m := s.plane.cur
	if m == nil || len(m.Entries) == 0 {
		return math.NaN(), 0
	}
	sum := 0.0
	for _, e := range m.Entries {
		sum += math.Abs(e.Mbps-feedTruthMbps) / feedTruthMbps
	}
	return sum / float64(len(m.Entries)), len(m.Entries)
}

// runFeed is the end-to-end entry. The trace is generated once per run (by
// the caller, before any clock starts); every round replays it into a fresh
// system, so every round is the same program and must count the same records
// and observations.
func runFeed(seed int64, tr *feedTrace, sz feedSizes, nRounds int) (*Result, error) {
	res := &Result{Workload: MeasureFeed, Seed: seed, Correct: true, Counts: map[string]int64{}}
	var first feedStats
	err := runRounds(res, nRounds, func(round int) (float64, []blockValues, error) {
		t0 := time.Now()
		sys, err := buildFeed(tr, sz, "", nil)
		if err != nil {
			return 0, nil, err
		}
		setup := time.Since(t0).Seconds()
		defer sys.close()
		if sys.st.failed > 0 {
			res.problem("round %d: %d warm-up epochs failed", round, sys.st.failed)
		}
		block := measureFeed(sys, sz, res, nil)
		if round == 0 {
			first = sys.st
			res.Counts["records_per_round"] = int64(first.records)
			res.Counts["observations_per_round"] = first.observations
		} else if sys.st.records != first.records || sys.st.observations != first.observations {
			res.problem("round %d not deterministic: %d records / %d observations, round 0 had %d / %d",
				round, sys.st.records, sys.st.observations, first.records, first.observations)
		}
		return setup, []blockValues{block}, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// measureFeed runs the measured epochs on a warmed system and returns them
// as one block: the quantiles and rates are over every epoch of the round,
// early ones on a small store and late ones on a large one alike.
func measureFeed(s *feedSystem, sz feedSizes, res *Result, tracer *Tracer) blockValues {
	s.st = feedStats{}
	runtime.GC()
	for e := 0; e < sz.epochs; e++ {
		s.epoch(sz.warmEpochs+e, tracer)
	}
	st := &s.st
	res.Attempted += st.epochs
	res.Failed += st.failed
	if st.failed > 0 {
		res.problem("%d of %d epochs failed (flush, ingest, store, or a map that did not parse or regressed)", st.failed, st.epochs)
	}
	if snap, err := s.plane.store.Scan(coord.Query{}); err == nil {
		st.storeRecords = len(snap.Records)
	}
	if want := feedOrigins * feedRemotes; st.finalMapEntries != want {
		res.problem("final map has %d paths, want %d", st.finalMapEntries, want)
	}
	// Judged over whole passes only: a partial pass (smoke tests) is
	// whichever chunks it happened to contain.
	if relErr := st.meanEstRelErr(); sz.epochs >= len(s.trace.chunks) && !(relErr <= estRelErrLimit) {
		res.problem("est_rel_err %.3f above %.2f (truth %d Mbit/s)", relErr, estRelErrLimit, feedTruthMbps)
	}
	fresh := append([]float64(nil), st.freshUs...)
	return blockValues{
		opsPerS:    float64(st.records) / st.wall.Seconds(),
		cpuUsPerOp: float64(st.cpu) / 1e3 / float64(st.records),
		latP50Us:   quantile(fresh, 0.5),
		latP90Us:   quantile(fresh, 0.9),
	}
}
