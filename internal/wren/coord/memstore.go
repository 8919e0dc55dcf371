package coord

import (
	"sort"
	"sync"
)

// MemStore is the in-memory Store: the freshest record of each path, a
// version counter and the watch subscriptions, all under one mutex. Every
// production writer is a single goroutine, so the lock is uncontended in
// practice. The zero value is not usable; call NewMemStore.
type MemStore struct {
	mu       sync.Mutex
	latest   map[Path]Record
	version  uint64
	closed   bool
	watchers map[*watcher]struct{}
	met      StoreMetrics
}

// watcher is one Watch subscription. close is idempotent because both the
// subscriber's cancel and the store's Close may race to release it.
type watcher struct {
	ch        chan Record
	closeOnce sync.Once
}

func (w *watcher) close() { w.closeOnce.Do(func() { close(w.ch) }) }

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{latest: make(map[Path]Record), watchers: make(map[*watcher]struct{})}
}

// SetMetrics attaches metrics (StoreMetrics's zero value detaches; all
// collectors are nil-safe).
func (s *MemStore) SetMetrics(m StoreMetrics) {
	s.mu.Lock()
	s.met = m
	s.mu.Unlock()
}

// Put implements Store. The version is claimed under the lock that makes
// the record visible, so a Scan's version covers every record it returns.
func (s *MemStore) Put(rec Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.met.PutErrors.Inc()
		return 0, ErrClosed
	}
	if err := validate(rec); err != nil {
		s.met.PutErrors.Inc()
		return 0, err
	}
	s.version++
	if cur, ok := s.latest[rec.Path]; !ok || rec.At >= cur.At {
		s.latest[rec.Path] = rec
	}
	s.met.Puts.Inc()
	// A full subscriber loses the record (counted) — writers never block
	// on a slow consumer.
	for w := range s.watchers {
		select {
		case w.ch <- rec:
		default:
			s.met.WatchDropped.Inc()
		}
	}
	return s.version, nil
}

// Scan implements Store: one record per path, sorted by (From, To).
func (s *MemStore) Scan(Query) (Snapshot, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	snap := Snapshot{Version: s.version, Records: make([]Record, 0, len(s.latest))}
	for _, rec := range s.latest {
		snap.Records = append(snap.Records, rec)
	}
	s.met.Scans.Inc()
	s.mu.Unlock()
	sort.Slice(snap.Records, func(i, j int) bool { return snap.Records[i].Path.Less(snap.Records[j].Path) })
	return snap, nil
}

// Get returns the freshest record held for path. It is MemStore's own
// point read, not part of Store: the sense phase asks for one pair at a
// time and must not copy and sort the whole set to do it.
func (s *MemStore) Get(path Path) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.latest[path]
	return rec, ok
}

// Watch implements Store. buffer bounds how far the subscriber may lag
// (minimum 1); cancel is idempotent and closes the channel.
func (s *MemStore) Watch(buffer int) (<-chan Record, func(), error) {
	if buffer < 1 {
		buffer = 1
	}
	w := &watcher{ch: make(chan Record, buffer)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	s.watchers[w] = struct{}{}
	cancel := func() {
		s.mu.Lock()
		delete(s.watchers, w)
		s.mu.Unlock()
		w.close()
	}
	return w.ch, cancel, nil
}

// Version implements Store.
func (s *MemStore) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Close implements Store: subsequent operations fail with ErrClosed and
// every watcher channel is closed.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for w := range s.watchers {
		delete(s.watchers, w)
		w.close()
	}
	return nil
}
