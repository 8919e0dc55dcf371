package wren

import (
	"bufio"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"freemeasure/internal/obs"
	"freemeasure/internal/pcap"
)

// This file implements the paper's second deployment mode (section 2):
// instead of analyzing locally, "the packet traces can be filtered for
// useful observations and transmitted to a remote repository for
// analysis". A Forwarder runs where the traffic is captured, filters the
// trace down to the records Wren needs (outgoing data, incoming ACKs) and
// ships them in batches; the Repository runs one Monitor per origin host
// and answers the same queries the local mode does.

// The wire between Forwarder and Repository is pcap's record stream: a
// preamble, then one frame per shipped batch carrying the origin name, the
// forwarder's encoded distributed-trace context (empty when untraced) and
// the records.

// Repository collects remote traces and analyzes them centrally.
type Repository struct {
	cfg Config

	mu       sync.Mutex
	monitors map[string]*Monitor
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
	batches  uint64
	records  uint64
	met      RepositoryMetrics
	flight   *obs.FlightRecorder
}

// NewRepository creates an empty repository; monitors are created lazily
// per origin with cfg.
func NewRepository(cfg Config) *Repository {
	return &Repository{cfg: cfg, monitors: make(map[string]*Monitor)}
}

// Listen accepts forwarder connections on addr and returns the bound
// address.
func (r *Repository) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("wren: repository closed")
	}
	r.ln = ln
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				conn.Close()
				return
			}
			if r.conns == nil {
				r.conns = make(map[net.Conn]struct{})
			}
			r.conns[conn] = struct{}{}
			r.mu.Unlock()
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				defer func() {
					conn.Close()
					r.mu.Lock()
					delete(r.conns, conn)
					r.mu.Unlock()
				}()
				r.serve(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// serve ingests one forwarder connection until it closes or sends
// something that is not a whole, well-formed frame (a gob-era peer fails at
// the preamble). Only whole frames are ingested.
func (r *Repository) serve(conn net.Conn) {
	// The decoder's body buffer and record slice are reused for every frame
	// on this connection. That is safe only because Monitor.FeedAll copies
	// each record into its shards by value and keeps no reference to the
	// batch; endpoint strings are interned per connection and immutable.
	dec := pcap.NewDecoder(bufio.NewReaderSize(conn, 64<<10))
	for {
		batch, err := dec.Next()
		if err != nil {
			return
		}
		if batch.Origin == "" {
			continue
		}
		m := r.monitor(batch.Origin)
		m.FeedAll(batch.Records)
		r.mu.Lock()
		r.batches++
		r.records += uint64(len(batch.Records))
		r.met.Batches.Inc()
		r.met.Records.Add(uint64(len(batch.Records)))
		fl := r.flight
		r.mu.Unlock()
		if ctx, ok := obs.ParseTraceContext(batch.Trace); ok {
			fl.RecordCtx(ctx, obs.Event{
				Component: "wren", Phase: "sense", Name: "report-ingest",
				Attrs: map[string]any{"origin": batch.Origin, "records": len(batch.Records)},
			})
		}
	}
}

func (r *Repository) monitor(origin string) *Monitor {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.monitors[origin]
	if !ok {
		m = NewMonitor(origin, r.cfg)
		m.SetMetrics(r.met.monitor)
		r.monitors[origin] = m
	}
	return m
}

// SetFlight attaches a flight recorder: every traced batch that arrives
// records a "report-ingest" event under the batch's trace context, so the
// mesh collector can attribute passive-measurement delivery to the
// controller cycle that is consuming it.
func (r *Repository) SetFlight(fl *obs.FlightRecorder) {
	r.mu.Lock()
	r.flight = fl
	r.mu.Unlock()
}

// Monitor returns the analysis state for one origin host, if any traces
// arrived from it.
func (r *Repository) Monitor(origin string) (*Monitor, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.monitors[origin]
	return m, ok
}

// Origins lists hosts that have shipped traces, sorted.
func (r *Repository) Origins() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.monitors))
	for o := range r.monitors {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// sortedMonitors snapshots the monitor set ordered by origin name. Map
// iteration order is randomized per run; everything that walks all
// monitors goes through here so analysis and scans are reproducible.
func (r *Repository) sortedMonitors() []*Monitor {
	r.mu.Lock()
	defer r.mu.Unlock()
	origins := make([]string, 0, len(r.monitors))
	for o := range r.monitors {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	ms := make([]*Monitor, len(origins))
	for i, o := range origins {
		ms[i] = r.monitors[o]
	}
	return ms
}

// PollAll runs analysis for every origin — in origin order, so two polls
// over the same traces do identical work in the identical sequence — and
// returns total new observations.
func (r *Repository) PollAll() int {
	total := 0
	for _, m := range r.sortedMonitors() {
		total += m.Poll()
	}
	return total
}

// Scan returns every origin's Monitor.Scan rows, sorted by origin then
// remote. The order is part of the contract: the coordination tier's map
// builder diffs successive scans and feeds them into a store keyed by
// path, so results must be deterministic — never the monitors map's
// iteration order.
func (r *Repository) Scan() []PathObservation {
	var out []PathObservation
	for _, m := range r.sortedMonitors() {
		out = append(out, m.Scan()...)
	}
	return out
}

// Received reports ingest counters (batches, records).
func (r *Repository) Received() (batches, records uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.batches, r.records
}

// Close stops the listener, severs open forwarder connections, and waits
// for the handlers. Closing the connections matters: a handler blocks
// reading until its peer sends or hangs up, so without it an idle (or
// wedged) forwarder would hold Close hostage indefinitely.
func (r *Repository) Close() {
	r.mu.Lock()
	r.closed = true
	ln := r.ln
	conns := make([]net.Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
}

// Forwarder ships filtered capture records to a Repository. A broken
// connection does not wedge it: buffered records are retained (up to a
// bound) and the next flush redials with exponential backoff, 100 ms
// doubling to a 5 s cap.
type Forwarder struct {
	origin  string
	addr    string
	batchSz int

	mu        sync.Mutex
	conn      net.Conn
	greeted   bool         // conn has been sent the stream preamble
	enc       pcap.Encoder // frame buffer, kept across flushes
	batch     []pcap.Record
	sent      uint64
	filtered  uint64 // not Wren-relevant, never shipped
	closed    bool
	lastErr   error
	retryBase time.Duration
	retryMax  time.Duration
	backoff   time.Duration
	nextRetry time.Time
	writeTO   time.Duration
	met       ForwarderMetrics
	log       *slog.Logger
	flight    *obs.FlightRecorder
	trace     obs.TraceContext
}

// defaultWriteTimeout bounds one batch write so a repository that accepted
// the connection but stopped reading (half-open peer, wedged host) cannot
// block a flush — and whoever drives it — forever.
const defaultWriteTimeout = 5 * time.Second

// NewForwarder creates a forwarder without dialing: the first flush
// connects, so a daemon can start before its repository is up and rely on
// the reconnect machinery from the beginning. batchSize bounds how many
// records accumulate before a flush (default 128).
func NewForwarder(addr, origin string, batchSize int) (*Forwarder, error) {
	if origin == "" {
		return nil, fmt.Errorf("wren: forwarder needs an origin name")
	}
	if batchSize <= 0 {
		batchSize = 128
	}
	return &Forwarder{
		origin:    origin,
		addr:      addr,
		batchSz:   batchSize,
		retryBase: 100 * time.Millisecond,
		retryMax:  5 * time.Second,
		writeTO:   defaultWriteTimeout,
	}, nil
}

// DialRepository connects to a repository, failing fast when it is
// unreachable. batchSize bounds how many records accumulate before a
// flush (default 128). Use NewForwarder to start disconnected instead.
func DialRepository(addr, origin string, batchSize int) (*Forwarder, error) {
	f, err := NewForwarder(addr, origin, batchSize)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	f.conn = conn
	return f, nil
}

// SetLogger attaches a structured logger for transport events — failed
// flushes, reconnects, records dropped by the retransmit bound. Nil (the
// default) keeps the forwarder silent; metrics still count everything.
func (f *Forwarder) SetLogger(l *slog.Logger) {
	f.mu.Lock()
	f.log = l
	f.mu.Unlock()
}

// SetFlight attaches a flight recorder so traced flushes leave a
// "report-batch" span on the forwarding node.
func (f *Forwarder) SetFlight(fl *obs.FlightRecorder) {
	f.mu.Lock()
	f.flight = fl
	f.mu.Unlock()
}

// SetTrace sets the distributed-trace context stamped on subsequent
// flushes: each shipped frame carries it, so the repository's ingest
// events correlate with the controller cycle whose reporting interval
// produced the batch. The zero context (the default) turns tracing off
// again.
func (f *Forwarder) SetTrace(ctx obs.TraceContext) {
	f.mu.Lock()
	f.trace = ctx
	f.mu.Unlock()
}

// FeedAll accepts a batch of capture records under one lock acquisition —
// the shape the VNET daemon's feed ring delivers. It applies the same
// filter the local monitor does (outgoing data, incoming ACKs) so
// irrelevant traffic never crosses the network; flushes trigger whenever
// the outgoing batch reaches the threshold mid-ingest.
func (f *Forwarder) FeedAll(rs []pcap.Record) {
	if len(rs) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range rs {
		if (r.Dir == pcap.Out && !r.IsAck) || (r.Dir == pcap.In && r.IsAck) {
			f.batch = append(f.batch, r)
			if len(f.batch) >= f.batchSz {
				f.flushLocked()
			}
		} else {
			f.filtered++
		}
	}
}

// Flush ships any buffered records immediately. The returned error is the
// last transport failure; it clears once a flush succeeds again.
func (f *Forwarder) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushLocked()
	return f.lastErr
}

func (f *Forwarder) flushLocked() {
	if len(f.batch) == 0 {
		return
	}
	if f.closed {
		// Records fed after Close (the feed ring drains asynchronously) must
		// not resurrect the connection.
		f.trimLocked()
		return
	}
	if f.conn == nil && !f.reconnectLocked() {
		f.trimLocked()
		return
	}
	if f.writeTO > 0 {
		f.conn.SetWriteDeadline(time.Now().Add(f.writeTO))
	}
	// A traced flush records a "report-batch" span here and ships the
	// span's context with the batch, so the repository's ingest event
	// nests under this node's flush in the merged mesh trace.
	var span *obs.Span
	wire := ""
	if f.trace.Valid() {
		span = f.flight.StartSpanCtx(f.trace, "wren", "sense", "report-batch")
		span.SetHost(f.origin)
		span.SetAttr("records", len(f.batch))
		if ctx := span.Context(); ctx.Valid() {
			wire = ctx.Encode()
		} else {
			wire = f.trace.Encode() // no recorder attached; propagate as-is
		}
	}
	err := f.shipLocked(wire)
	if span != nil {
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
	}
	if err != nil {
		f.failLocked(err)
		return
	}
	f.lastErr = nil
}

// shipLocked writes the batch as frames, one conn.Write each: a single
// frame unless the batch outgrows the frame bound. Records leave the batch
// as their frame's write succeeds, so a write that fails part-way loses
// nothing: the repository drops the cut frame with the connection, and the
// next flush resends it whole on a new one.
func (f *Forwarder) shipLocked(wire string) error {
	var err error
	shipped := 0
	for shipped < len(f.batch) && err == nil {
		f.enc.Reset()
		if !f.greeted {
			f.enc.Preamble()
		}
		n, ferr := f.enc.Frame(f.origin, wire, f.batch[shipped:])
		if ferr != nil {
			// A record too large for any frame can never ship: drop it
			// rather than wedge the stream behind it.
			f.met.LostRecords.Inc()
			if f.log != nil {
				f.log.Warn("record dropped", "err", ferr)
			}
			f.batch = append(f.batch[:shipped], f.batch[shipped+1:]...)
			continue
		}
		if _, err = f.conn.Write(f.enc.Bytes()); err == nil {
			f.greeted = true
			shipped += n
		}
	}
	f.sent += uint64(shipped)
	f.batch = append(f.batch[:0], f.batch[shipped:]...)
	return err
}

// failLocked drops the dead connection, arms the next retry, and trims
// the retransmit buffer.
func (f *Forwarder) failLocked(err error) {
	f.lastErr = err
	if f.conn != nil {
		f.conn.Close()
		f.conn, f.greeted = nil, false
	}
	if f.backoff == 0 {
		f.backoff = f.retryBase
	} else {
		f.backoff = min(2*f.backoff, f.retryMax)
	}
	f.nextRetry = time.Now().Add(f.backoff)
	if f.log != nil {
		f.log.Warn("repository unreachable", "addr", f.addr,
			"err", err, "retry_in", f.backoff)
	}
	f.trimLocked()
}

// trimLocked bounds the retransmit buffer so an unreachable repository
// cannot grow memory without limit; the oldest records go first.
func (f *Forwarder) trimLocked() {
	if bound := 16 * f.batchSz; len(f.batch) > bound {
		lost := len(f.batch) - bound
		f.batch = append(f.batch[:0], f.batch[lost:]...)
		f.met.LostRecords.Add(uint64(lost))
		if f.log != nil {
			f.log.Warn("retransmit buffer full, records dropped", "lost", lost)
		}
	}
}

// reconnectLocked redials the repository once the backoff window has
// passed, reporting whether a usable connection now exists.
func (f *Forwarder) reconnectLocked() bool {
	if time.Now().Before(f.nextRetry) {
		return false
	}
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		f.failLocked(err)
		return false
	}
	f.conn = conn
	f.backoff = 0
	f.lastErr = nil
	f.met.Reconnects.Inc()
	if f.log != nil {
		f.log.Info("reconnected to repository", "addr", f.addr)
	}
	return true
}

// Stats returns (records shipped, records filtered out).
func (f *Forwarder) Stats() (sent, filtered uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent, f.filtered
}

// Close flushes and closes the connection. Further flushes become no-ops:
// a record fed after Close never redials.
func (f *Forwarder) Close() error {
	f.mu.Lock()
	f.flushLocked()
	f.closed = true
	err := f.lastErr
	conn := f.conn
	f.conn, f.greeted = nil, false
	f.mu.Unlock()
	if conn != nil {
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
