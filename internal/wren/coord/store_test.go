package coord

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestMemStoreConformance runs the shared backend contract against the
// sharded in-memory store.
func TestMemStoreConformance(t *testing.T) {
	StoreConformance(t, func(t *testing.T) Store {
		s := NewMemStore()
		t.Cleanup(func() { s.Close() })
		return s
	})
}

// TestFileStoreConformance runs the same contract against the persistent
// backend — one suite, two implementations.
func TestFileStoreConformance(t *testing.T) {
	StoreConformance(t, func(t *testing.T) Store {
		s, err := OpenFileStore(filepath.Join(t.TempDir(), "coord.log"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	})
}

// TestFileStoreReplay closes a populated store and reopens it: every
// record and the scan order must survive; the version counter restarts
// from the replayed record count.
func TestFileStoreReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.log")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Path: Path{From: "h2", To: "h1"}, At: 30, Mbps: 10},
		{Path: Path{From: "h1", To: "h2"}, At: 10, Mbps: 40, Kind: "exact", Quality: 0.9},
		{Path: Path{From: "h1", To: "h2"}, At: 20, Mbps: 50, LatencyMs: 1.5},
	}
	for _, r := range recs {
		if _, err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	before, err := s.Scan(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	after, err := s2.Scan(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Records) != len(before.Records) {
		t.Fatalf("replay lost records: %d -> %d", len(before.Records), len(after.Records))
	}
	for i := range before.Records {
		if after.Records[i] != before.Records[i] {
			t.Errorf("replayed[%d] = %+v, want %+v", i, after.Records[i], before.Records[i])
		}
	}
	if after.Version != uint64(len(recs)) {
		t.Errorf("replayed version = %d, want %d", after.Version, len(recs))
	}
	// The reopened store keeps accepting puts that survive another cycle.
	if _, err := s2.Put(Record{Path: Path{From: "h3", To: "h1"}, At: 5, Mbps: 7}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	snap, err := s3.Scan(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != len(recs)+1 {
		t.Fatalf("post-reopen append lost: %d records, want %d", len(snap.Records), len(recs)+1)
	}
}

// TestFileStoreTornTail simulates a crash mid-append: garbage after the
// last newline-terminated record must not poison the store, and the torn
// bytes are truncated away so the next append starts clean.
func TestFileStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.log")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Record{Path: Path{From: "h1", To: "h2"}, At: 10, Mbps: 40}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Record{Path: Path{From: "h1", To: "h2"}, At: 20, Mbps: 50}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"path":{"from":"h9","to":"h8"},"at":99`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer s2.Close()
	snap, err := s2.Scan(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 2 {
		t.Fatalf("torn tail corrupted replay: %d records, want 2 (%+v)", len(snap.Records), snap.Records)
	}
	// Appends after recovery land on a clean boundary.
	if _, err := s2.Put(Record{Path: Path{From: "h2", To: "h3"}, At: 30, Mbps: 60}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	snap, err = s3.Scan(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 3 {
		t.Fatalf("append after torn-tail recovery lost: %d records, want 3", len(snap.Records))
	}
}

// TestFileStoreOverlongLineFailsOpen: a line the scanner cannot hold is
// not a torn tail — valid records follow it. Replay must refuse the log,
// naming where it stopped, and must not truncate those records away.
func TestFileStoreOverlongLineFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.log")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(Record{Path: Path{From: "h1", To: "h2"}, At: 10, Mbps: 40}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tail := `{"path":{"From":"h2","To":"h3"},"at":20,"mbps":50}` + "\n"
	log := append(append([]byte(nil), head...), bytes.Repeat([]byte("x"), 2<<20)...)
	log = append(log, '\n')
	log = append(log, tail...)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenFileStore(path)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("open over-long log: err = %v, want bufio.ErrTooLong", err)
	}
	if want := fmt.Sprintf("at byte %d", len(head)); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the offset (%s)", err, want)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, log) {
		t.Fatalf("failed open changed the log: %d bytes, want %d", len(after), len(log))
	}
}

// fullSortScan is the Scan MemStore had before it ordered runs instead of
// records: gather every matching record, then comparison-sort them all by
// (Path, At).
func fullSortScan(s *MemStore, q Query) []Record {
	var out []Record
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for p, recs := range sh.paths {
			if !q.Path.IsZero() && p != q.Path {
				continue
			}
			j := sort.Search(len(recs), func(j int) bool { return recs[j].At >= q.SinceNs })
			out = append(out, recs[j:]...)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path.Less(out[j].Path)
		}
		return out[i].At < out[j].At
	})
	return out
}

// TestMemStoreScanMatchesFullSort is the differential test for Scan's run
// ordering: over seeded Put streams with repeated (Path, At) keys and
// timestamps arriving out of order, every query — all paths, one path
// (present or not), a SinceNs cut, both — returns exactly what sorting
// every record does.
func TestMemStoreScanMatchesFullSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewMemStore()
		hosts := []string{"h1", "h2", "h10", "a", "b", "h1 ", "z"}
		var paths []Path
		for i := 0; i < 2+rng.Intn(24); i++ {
			paths = append(paths, Path{From: hosts[rng.Intn(len(hosts))], To: hosts[rng.Intn(len(hosts))]})
		}
		for i := 0; i < rng.Intn(600); i++ {
			rec := Record{Path: paths[rng.Intn(len(paths))], At: 1 + rng.Int63n(200), Mbps: rng.Float64() * 100}
			if _, err := s.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
		queries := []Query{{}, {SinceNs: 1}, {SinceNs: 100}, {SinceNs: 201},
			{Path: Path{From: "nobody", To: "h1"}}}
		for _, p := range paths {
			queries = append(queries, Query{Path: p}, Query{Path: p, SinceNs: 1 + rng.Int63n(200)})
		}
		for _, q := range queries {
			snap, err := s.Scan(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := fullSortScan(s, q); !reflect.DeepEqual(snap.Records, want) {
				t.Fatalf("seed %d query %+v: Scan returned %d records, full sort %d:\n got %+v\nwant %+v",
					seed, q, len(snap.Records), len(want), snap.Records, want)
			}
		}
		s.Close()
	}
}
