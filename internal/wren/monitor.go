package wren

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"freemeasure/internal/estimator"
	"freemeasure/internal/pcap"
	"freemeasure/internal/wren/coord"
)

// Config assembles the online monitor's tunables.
type Config struct {
	Scan      ScanConfig
	Estimator EstimatorConfig
	// DeferLimit bounds how long a train waits for its ACKs before being
	// abandoned (ns, default 2 s). ACKs lost to congestion would otherwise
	// pin pending state forever.
	DeferLimit int64
	// MaxPending bounds per-flow buffered records (default 1<<16); beyond
	// it the oldest pending data is abandoned.
	MaxPending int
}

// monitorShards is the monitor's lock striping width. Records shard by
// remote endpoint, so all state for one path lives under a single shard
// lock. It must be a power of two (the index is a hash mask) and at most
// 64, so that a batch's touched-shard set fits one machine word.
const monitorShards = 16

func (c Config) withDefaults() Config {
	c.Scan = c.Scan.withDefaults()
	c.Estimator = c.Estimator.withDefaults()
	if c.DeferLimit == 0 {
		c.DeferLimit = 2_000_000_000
	}
	if c.MaxPending == 0 {
		c.MaxPending = 1 << 16
	}
	return c
}

// flowStream buffers one unidirectional connection's pending records.
type flowStream struct {
	outs []pcap.Record // unconsumed data departures, time-ordered
	acks []pcap.Record // pending ACK arrivals, time-ordered
}

// pathState aggregates all flows to one remote endpoint.
type pathState struct {
	bw     *estimator.SIC
	lat    *LatencyEstimator
	recent []estimator.Observation // capped log for the SOAP GetObservations call
}

// monitorShard holds the flows and paths whose remote endpoint hashes to
// this stripe. Because the shard key is the remote name, a flow and the
// pathState its observations feed always share one lock — Poll and the
// per-remote queries never cross shards.
type monitorShard struct {
	mu      sync.Mutex
	flows   map[pcap.FlowKey]*flowStream
	paths   map[string]*pathState
	fedOut  uint64 // guarded by mu
	fedAck  uint64
	emitted uint64
	_       [16]byte // pad to a cache line so neighboring locks don't bounce
}

// Monitor is Wren's online analysis engine (the user-level daemon): feed it
// capture records, poll it periodically, query it for per-remote available
// bandwidth and latency. It is safe for concurrent use, so the same code
// serves the single-threaded simulator and the multi-goroutine VNET
// overlay. State is striped across shards keyed by remote endpoint, so
// feeds for different peers never contend on one lock.
type Monitor struct {
	cfg    Config
	local  string
	shards []monitorShard
	lastAt atomic.Int64 // newest record timestamp seen
	met    atomic.Pointer[MonitorMetrics]
	hook   atomic.Pointer[TrainHook]
}

// TrainHook observes every train the analysis resolves with measurement
// data attached — a verdict or an ambiguous trend — with the train's
// per-packet departures and RTTs filled in (RTT entries < 0 are
// unmatched). The hook runs with the owning shard locked: it must be fast
// and must not call back into the Monitor. The slices are fresh for each
// call and the hook may keep them.
type TrainHook func(remote string, o estimator.Observation)

// SetTrainHook installs fn as the monitor's train tap, giving external
// estimators the exact same Wren feed the per-path SIC consumes: an
// estimator.Set is attached with mon.SetTrainHook(set.Observe). Pass nil
// to remove. Per-packet detail is built for the hook only while one is
// installed, so an un-tapped monitor pays nothing.
func (m *Monitor) SetTrainHook(fn TrainHook) {
	if fn == nil {
		m.hook.Store(nil)
		return
	}
	m.hook.Store(&fn)
}

// NewMonitor creates a monitor for the host named local.
func NewMonitor(local string, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:    cfg,
		local:  local,
		shards: make([]monitorShard, monitorShards),
	}
	for i := range m.shards {
		m.shards[i].flows = make(map[pcap.FlowKey]*flowStream)
		m.shards[i].paths = make(map[string]*pathState)
	}
	m.met.Store(&MonitorMetrics{})
	return m
}

// shardFor hashes a remote endpoint name (FNV-1a) onto a shard.
func (m *Monitor) shardFor(remote string) *monitorShard {
	return &m.shards[m.shardIndex(remote)]
}

// observeAt advances the monotonic newest-timestamp watermark.
func (m *Monitor) observeAt(at int64) {
	for {
		cur := m.lastAt.Load()
		if at <= cur || m.lastAt.CompareAndSwap(cur, at) {
			return
		}
	}
}

// Feed ingests one capture record. Outgoing data packets and incoming ACKs
// drive the measurement; everything else is ignored (incoming data and
// outgoing ACKs belong to the reverse path, measured by the peer's Wren).
func (m *Monitor) Feed(r pcap.Record) {
	m.met.Load().RecordsFed.Inc()
	m.observeAt(r.At)
	sh := m.shardFor(r.Flow.Remote)
	sh.mu.Lock()
	sh.ingest(m.cfg.MaxPending, r)
	sh.mu.Unlock()
}

// batchScratch pools the per-record shard-index slices FeedAll uses to
// group a batch, so steady-state batching allocates nothing.
var batchScratch = sync.Pool{New: func() any {
	b := make([]uint8, 0, 512)
	return &b
}}

// FeedAll ingests a batch of records, locking each touched shard exactly
// once: records are bucketed by shard index up front (monitorShards <= 64,
// so the touched set is one bitmask), then each shard drains its bucket
// under a single lock acquisition.
func (m *Monitor) FeedAll(rs []pcap.Record) {
	if len(rs) == 0 {
		return
	}
	m.met.Load().RecordsFed.Add(uint64(len(rs)))
	idxp := batchScratch.Get().(*[]uint8)
	idx := *idxp
	if cap(idx) < len(rs) {
		idx = make([]uint8, len(rs))
	}
	idx = idx[:len(rs)]
	var touched uint64
	newest := int64(0)
	for i := range rs {
		idx[i] = m.shardIndex(rs[i].Flow.Remote)
		touched |= 1 << idx[i]
		if rs[i].At > newest {
			newest = rs[i].At
		}
	}
	m.observeAt(newest)
	for touched != 0 {
		s := uint8(bits.TrailingZeros64(touched))
		touched &^= 1 << s
		sh := &m.shards[s]
		sh.mu.Lock()
		for i := range rs {
			if idx[i] == s {
				sh.ingest(m.cfg.MaxPending, rs[i])
			}
		}
		sh.mu.Unlock()
	}
	*idxp = idx
	batchScratch.Put(idxp)
}

// shardIndex returns the stripe index for a remote endpoint name.
func (m *Monitor) shardIndex(remote string) uint8 {
	h := uint32(2166136261)
	for i := 0; i < len(remote); i++ {
		h ^= uint32(remote[i])
		h *= 16777619
	}
	return uint8(h & (monitorShards - 1))
}

// ingest files one record into the shard's pending streams. Called with
// sh.mu held.
func (sh *monitorShard) ingest(maxPending int, r pcap.Record) {
	switch {
	case r.Dir == pcap.Out && !r.IsAck:
		fs := sh.flow(r.Flow)
		fs.outs = append(fs.outs, r)
		sh.fedOut++
		if len(fs.outs) > maxPending {
			fs.outs = append(fs.outs[:0], fs.outs[len(fs.outs)-maxPending/2:]...)
		}
	case r.Dir == pcap.In && r.IsAck:
		// The ACK stream for local->remote data arrives from the remote:
		// key it under the same (local, remote) flow.
		key := pcap.FlowKey{Local: r.Flow.Local, Remote: r.Flow.Remote}
		fs := sh.flow(key)
		fs.acks = append(fs.acks, r)
		sh.fedAck++
		if len(fs.acks) > maxPending {
			fs.acks = append(fs.acks[:0], fs.acks[len(fs.acks)-maxPending/2:]...)
		}
	}
}

func (sh *monitorShard) flow(key pcap.FlowKey) *flowStream {
	fs, ok := sh.flows[key]
	if !ok {
		fs = &flowStream{}
		sh.flows[key] = fs
	}
	return fs
}

func (sh *monitorShard) path(cfg *Config, remote string) *pathState {
	ps, ok := sh.paths[remote]
	if !ok {
		ps = &pathState{
			bw:  estimator.NewSIC(estimator.Config{Window: cfg.Estimator.Window, MaxAge: cfg.Estimator.MaxAge}),
			lat: NewLatencyEstimator(cfg.Estimator),
		}
		sh.paths[remote] = ps
	}
	return ps
}

// Poll runs the analysis over pending traffic and returns the number of new
// observations produced. Call it periodically (the observation thread of
// the paper's user-level component). Shards are polled one at a time, so
// concurrent feeds to other shards proceed unimpeded.
func (m *Monitor) Poll() int {
	met := m.met.Load()
	if met.PollSeconds != nil {
		defer func(start time.Time) {
			met.PollSeconds.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	lastAt := m.lastAt.Load()
	produced := 0
	for s := range m.shards {
		sh := &m.shards[s]
		sh.mu.Lock()
		for key, fs := range sh.flows {
			produced += m.pollFlow(sh, met, lastAt, key, fs)
			if len(fs.outs) == 0 && len(fs.acks) == 0 {
				delete(sh.flows, key)
			}
		}
		sh.mu.Unlock()
	}
	return produced
}

// pollFlow analyzes one flow's pending trains. Called with sh.mu held.
func (m *Monitor) pollFlow(sh *monitorShard, met *MonitorMetrics, lastAt int64, key pcap.FlowKey, fs *flowStream) int {
	trains, tailStart := ScanTrains(fs.outs, lastAt, m.cfg.Scan)
	produced := 0
	keepFrom := tailStart
	hook := m.hook.Load()
	for _, tr := range trains {
		tr := tr
		obs, status := AnalyzeTrain(&tr, fs.acks)
		if hook != nil && (status == AnalyzeOK || status == AnalyzeAmbiguous) {
			o := obs
			o.RTTs, _ = MatchRTTs(&tr, fs.acks)
			o.Departures = make([]int64, len(tr.Packets))
			for i, p := range tr.Packets {
				o.Departures[i] = p.At
			}
			(*hook)(key.Remote, o)
		}
		// A train counts as formed when it resolves (observation, discard,
		// or abandonment) — deferred trains are rescanned next poll and
		// would otherwise be counted repeatedly.
		switch status {
		case AnalyzeOK:
			ps := sh.path(&m.cfg, key.Remote)
			ps.bw.Observe(obs)
			ps.lat.Add(obs.At, obs.MinRTT)
			ps.recent = append(ps.recent, obs)
			if len(ps.recent) > 4*m.cfg.Estimator.Window {
				ps.recent = append(ps.recent[:0], ps.recent[len(ps.recent)-2*m.cfg.Estimator.Window:]...)
			}
			sh.emitted++
			produced++
			met.TrainsFormed.Inc()
			met.EstimatesPublished.Inc()
			if obs.Congested {
				met.SICIncreasing.Inc()
			} else {
				met.SICNonIncreasing.Inc()
			}
		case AnalyzeWaiting:
			if lastAt-tr.End < m.cfg.DeferLimit {
				// Wait for the ACKs; everything from this train on stays
				// pending and the scan repeats next poll.
				idx := indexOf(fs.outs, tr.Start)
				if idx >= 0 && idx < keepFrom {
					keepFrom = idx
				}
			} else {
				// Too old: abandon (ACKs lost).
				met.TrainsFormed.Inc()
				met.SICDiscarded.Inc()
			}
		case AnalyzeDiscard, AnalyzeAmbiguous:
			// No SIC verdict; consumed silently (ambiguous trains were
			// already offered to the train hook above).
			met.TrainsFormed.Inc()
			met.SICDiscarded.Inc()
		}
		if keepFrom < tailStart {
			break // deferred: later trains will be rescanned anyway
		}
	}
	fs.outs = append(fs.outs[:0], fs.outs[keepFrom:]...)
	// Keep only ACKs that can still match pending data.
	if len(fs.outs) > 0 {
		cut := fs.outs[0].At
		i := sort.Search(len(fs.acks), func(j int) bool { return fs.acks[j].At >= cut })
		fs.acks = append(fs.acks[:0], fs.acks[i:]...)
	} else {
		fs.acks = fs.acks[:0]
	}
	return produced
}

func indexOf(outs []pcap.Record, at int64) int {
	i := sort.Search(len(outs), func(j int) bool { return outs[j].At >= at })
	if i < len(outs) && outs[i].At == at {
		return i
	}
	return -1
}

// AvailableBandwidth returns the current estimate toward remote.
func (m *Monitor) AvailableBandwidth(remote string) (estimator.Estimate, bool) {
	sh := m.shardFor(remote)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ps, ok := sh.paths[remote]
	if !ok {
		return estimator.Estimate{}, false
	}
	return ps.bw.Estimate(0)
}

// Latency returns the one-way latency estimate toward remote in ms.
func (m *Monitor) Latency(remote string) (float64, bool) {
	sh := m.shardFor(remote)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ps, ok := sh.paths[remote]
	if !ok {
		return 0, false
	}
	return ps.lat.LatencyMs()
}

// Remotes lists the endpoints with measurement state, sorted.
func (m *Monitor) Remotes() []string {
	var out []string
	for s := range m.shards {
		sh := &m.shards[s]
		sh.mu.Lock()
		for r := range sh.paths {
			out = append(out, r)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// PathObservation is one row of a Scan: the monitor's current
// available-bandwidth estimate toward a remote, the latency estimate when
// one exists, and the freshest underlying observation timestamp.
type PathObservation struct {
	Origin    string
	Remote    string
	Estimate  estimator.Estimate // Count 0 when no observation is windowed
	LatencyMs float64
	LatencyOK bool
	At        int64 // newest SIC observation backing the estimate (ns), 0 if unknown
}

// Record is the one conversion from a monitor row to the path record every
// later stage carries: control report, store, published map, sense phase.
func (po PathObservation) Record() coord.Record {
	rec := coord.Record{
		Path: coord.Path{From: po.Origin, To: po.Remote}, At: po.At, Mbps: po.Estimate.Mbps,
		Kind: po.Estimate.Kind.String(), Quality: po.Estimate.Quality,
	}
	if po.LatencyOK {
		rec.LatencyMs = po.LatencyMs
	}
	return rec
}

// Scan returns one row per remote with measurement state, sorted by
// remote: what AvailableBandwidth and Latency would answer, read together
// under the path's shard lock. At is the time of the path's last
// observation, so a path that has gone silent keeps reporting the moment
// it was last measured rather than the moment it was last asked about.
func (m *Monitor) Scan() []PathObservation {
	var out []PathObservation
	for s := range m.shards {
		sh := &m.shards[s]
		sh.mu.Lock()
		for remote, ps := range sh.paths {
			po := PathObservation{Origin: m.local, Remote: remote}
			po.Estimate, _ = ps.bw.Estimate(0)
			po.LatencyMs, po.LatencyOK = ps.lat.LatencyMs()
			po.At = po.Estimate.At
			out = append(out, po)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Remote < out[j].Remote })
	return out
}

// Observations returns the logged observations for remote newer than
// sinceNs, oldest first — the stream the SOAP interface serves to clients.
func (m *Monitor) Observations(remote string, sinceNs int64) []estimator.Observation {
	sh := m.shardFor(remote)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ps, ok := sh.paths[remote]
	if !ok {
		return nil
	}
	var out []estimator.Observation
	for _, o := range ps.recent {
		if o.At > sinceNs {
			out = append(out, o)
		}
	}
	return out
}

// MonitorStats reports ingest/emit counters.
type MonitorStats struct {
	OutRecords   uint64
	AckRecords   uint64
	Observations uint64
}

// Stats returns the monitor's counters, summed across shards.
func (m *Monitor) Stats() MonitorStats {
	var st MonitorStats
	for s := range m.shards {
		sh := &m.shards[s]
		sh.mu.Lock()
		st.OutRecords += sh.fedOut
		st.AckRecords += sh.fedAck
		st.Observations += sh.emitted
		sh.mu.Unlock()
	}
	return st
}
