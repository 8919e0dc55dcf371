package coord

import (
	"errors"
	"fmt"
)

// Path identifies one directed measured path between two daemons.
type Path struct {
	From string
	To   string
}

// String renders the path as "from>to", the form the bandwidth-map wire
// format uses.
func (p Path) String() string { return p.From + ">" + p.To }

// Less orders paths lexicographically by (From, To) — the sort order
// every Scan and every published map obeys.
func (p Path) Less(q Path) bool {
	if p.From != q.From {
		return p.From < q.From
	}
	return p.To < q.To
}

// Record is one path measurement: what was measured for a path at one
// point in time. It is the only shape a measurement has once it leaves
// wren.Monitor — control report, store, published map and sense phase all
// carry it unchanged. Zero Mbps or LatencyMs means "not measured", zero At
// "no timestamp". A store holds one record per Path: the freshest by At.
type Record struct {
	Path      Path    `json:"path"`
	At        int64   `json:"at,omitempty"` // observation time, unix nanoseconds
	Mbps      float64 `json:"mbps"`
	LatencyMs float64 `json:"latencyMs,omitempty"`
	Kind      string  `json:"kind,omitempty"`
	Quality   float64 `json:"quality,omitempty"`
}

// Query is Scan's argument. It has no fields: every Scan returns the
// whole latest-value set.
type Query struct{}

// Snapshot is one versioned Scan result: the records plus the store
// version they reflect. Version is monotonic: a later Scan never reports
// a smaller version, and every record in the snapshot was Put at or
// before it.
type Snapshot struct {
	Version uint64
	Records []Record
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("coord: store closed")

// Store is the pluggable observation backend: the latest value of each
// path, not its history. Implementations must provide:
//
//   - Put: store the record as its path's value unless the path already
//     holds a strictly fresher one (a tie on At replaces). Every Put —
//     including one too old to replace anything — returns a new version,
//     one above the last, and is delivered to watchers.
//   - Scan: a versioned snapshot holding one record per path, sorted by
//     (Path.From, Path.To) — the invariant the map builder and every
//     other consumer relies on.
//   - Watch: a subscription delivering every subsequent Put in order. A
//     subscriber that falls more than buffer records behind loses the
//     overflow (counted, never blocking writers); cancel releases it.
//   - Version: the current version without scanning.
//
// All methods are safe for concurrent use. The shared conformance suite
// (StoreConformance) is the contract's executable form; run it against
// any new backend.
type Store interface {
	Put(rec Record) (version uint64, err error)
	Scan(q Query) (Snapshot, error)
	Watch(buffer int) (ch <-chan Record, cancel func(), err error)
	Version() uint64
	Close() error
}

// validate rejects records no backend should accept.
func validate(rec Record) error {
	if rec.Path.From == "" || rec.Path.To == "" {
		return fmt.Errorf("coord: record needs a full path, got %q", rec.Path)
	}
	if rec.At <= 0 {
		return fmt.Errorf("coord: record for %s needs a positive timestamp", rec.Path)
	}
	return nil
}
