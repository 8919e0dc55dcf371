package coord

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
)

// memShards fixes the shard fan-out. Like the wren monitor's endpoint
// shards, the point is lock spread under concurrent Put bursts, not
// placement: the count never changes at runtime.
const memShards = 16

// memShard holds one slice of the path key space: per-path record lists
// kept sorted by observation time.
type memShard struct {
	mu    sync.Mutex
	paths map[Path][]Record
}

// MemStore is the in-memory Store: the path key space sharded across
// fixed buckets, a global atomic version, and fan-out watch delivery.
// The zero value is not usable; call NewMemStore.
type MemStore struct {
	shards  [memShards]memShard
	version atomic.Uint64
	stored  atomic.Int64 // records held, Scan's allocation hint
	closed  atomic.Bool

	wmu      sync.Mutex
	watchers map[*watcher]struct{}

	met StoreMetrics
}

// watcher is one Watch subscription. close is idempotent because both the
// subscriber's cancel and the store's Close may race to release it.
type watcher struct {
	ch        chan Record
	dropped   *atomic.Uint64
	closeOnce sync.Once
}

func (w *watcher) close() { w.closeOnce.Do(func() { close(w.ch) }) }

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	s := &MemStore{watchers: make(map[*watcher]struct{})}
	for i := range s.shards {
		s.shards[i].paths = make(map[Path][]Record)
	}
	return s
}

// SetMetrics attaches metrics (StoreMetrics's zero value detaches; all
// collectors are nil-safe).
func (s *MemStore) SetMetrics(m StoreMetrics) {
	s.wmu.Lock()
	s.met = m
	s.wmu.Unlock()
}

func (s *MemStore) shardFor(p Path) *memShard {
	h := fnv.New32a()
	h.Write([]byte(p.From))
	h.Write([]byte{'>'})
	h.Write([]byte(p.To))
	return &s.shards[h.Sum32()%memShards]
}

// Put implements Store. The version is claimed before the record becomes
// visible, so any Scan that returns the record reports a version at or
// past the one returned here.
func (s *MemStore) Put(rec Record) (uint64, error) {
	if s.closed.Load() {
		s.met.PutErrors.Inc()
		return 0, ErrClosed
	}
	if err := validate(rec); err != nil {
		s.met.PutErrors.Inc()
		return 0, err
	}
	v := s.version.Add(1)
	sh := s.shardFor(rec.Path)
	sh.mu.Lock()
	recs := sh.paths[rec.Path]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].At >= rec.At })
	if i < len(recs) && recs[i].At == rec.At {
		recs[i] = rec // same (path, timestamp) key: replace
	} else {
		recs = append(recs, Record{})
		copy(recs[i+1:], recs[i:])
		recs[i] = rec
		s.stored.Add(1)
	}
	sh.paths[rec.Path] = recs
	sh.mu.Unlock()
	s.met.Puts.Inc()
	s.notify(rec)
	return v, nil
}

// notify fans the record out to watchers. A full subscriber loses the
// record (counted on both the store and the watcher) — writers never
// block on a slow consumer.
func (s *MemStore) notify(rec Record) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for w := range s.watchers {
		select {
		case w.ch <- rec:
		default:
			w.dropped.Add(1)
			s.met.WatchDropped.Inc()
		}
	}
}

// Scan implements Store. Records come back sorted by (From, To, At); the
// snapshot version is read after collection, so it covers every record
// returned.
//
// Every path's list is already sorted by At, so only whole runs are put in
// order, never records: each selected run is copied out under its shard
// lock (a slice into shard storage must not outlive the Unlock, since Put
// shifts those arrays in place), and the runs are then laid out in path
// order.
func (s *MemStore) Scan(q Query) (Snapshot, error) {
	if s.closed.Load() {
		return Snapshot{}, ErrClosed
	}
	type run struct {
		path   Path
		off, n int
	}
	var (
		buf  []Record
		runs []run
	)
	collect := func(p Path, recs []Record) {
		j := sort.Search(len(recs), func(j int) bool { return recs[j].At >= q.SinceNs })
		if j < len(recs) {
			runs = append(runs, run{p, len(buf), len(recs) - j})
			buf = append(buf, recs[j:]...)
		}
	}
	if !q.Path.IsZero() {
		sh := s.shardFor(q.Path)
		sh.mu.Lock()
		collect(q.Path, sh.paths[q.Path])
		sh.mu.Unlock()
	} else {
		if n := s.stored.Load(); n > 0 {
			buf = make([]Record, 0, n)
		}
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			for p, recs := range sh.paths {
				collect(p, recs)
			}
			sh.mu.Unlock()
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].path.Less(runs[j].path) })
	var out []Record
	switch len(runs) {
	case 0:
	case 1:
		out = buf
	default:
		out = make([]Record, 0, len(buf))
		for _, r := range runs {
			out = append(out, buf[r.off:r.off+r.n]...)
		}
	}
	s.met.Scans.Inc()
	return Snapshot{Version: s.version.Load(), Records: out}, nil
}

// Watch implements Store. buffer bounds how far the subscriber may lag
// (minimum 1); cancel is idempotent and closes the channel.
func (s *MemStore) Watch(buffer int) (<-chan Record, func(), error) {
	if s.closed.Load() {
		return nil, nil, ErrClosed
	}
	if buffer < 1 {
		buffer = 1
	}
	w := &watcher{ch: make(chan Record, buffer), dropped: &atomic.Uint64{}}
	s.wmu.Lock()
	s.watchers[w] = struct{}{}
	s.wmu.Unlock()
	cancel := func() {
		s.wmu.Lock()
		delete(s.watchers, w)
		s.wmu.Unlock()
		w.close()
	}
	return w.ch, cancel, nil
}

// Version implements Store.
func (s *MemStore) Version() uint64 { return s.version.Load() }

// Close implements Store: subsequent operations fail with ErrClosed and
// every watcher channel is closed.
func (s *MemStore) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.wmu.Lock()
	ws := make([]*watcher, 0, len(s.watchers))
	for w := range s.watchers {
		ws = append(ws, w)
		delete(s.watchers, w)
	}
	s.wmu.Unlock()
	for _, w := range ws {
		w.close()
	}
	return nil
}
