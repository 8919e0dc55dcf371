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
	"time"
)

// TestMemStoreConformance runs the shared backend contract against the
// in-memory store.
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
// from the replayed line count.
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
	if len(snap.Records) != len(before.Records)+1 {
		t.Fatalf("post-reopen append lost: %d records, want %d", len(snap.Records), len(before.Records)+1)
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
	if _, err := s.Put(Record{Path: Path{From: "h1", To: "h3"}, At: 20, Mbps: 50}); err != nil {
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

// historyModel is the store as it was before it kept only latest values:
// every Put appended, a repeated (Path, At) key replaced by the last write,
// records sorted by (Path, At). Its map is the last record of each path,
// exactly as BuildMap picked them from that history.
type historyModel struct {
	puts uint64
	recs map[Record]Record // keyed by (Path, At) only
}

func (h *historyModel) put(rec Record) {
	h.puts++
	h.recs[Record{Path: rec.Path, At: rec.At}] = rec
}

func (h *historyModel) buildMap(now time.Time) *BandwidthMap {
	var all []Record
	for _, r := range h.recs {
		all = append(all, r)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Path != all[j].Path {
			return all[i].Path.Less(all[j].Path)
		}
		return all[i].At < all[j].At
	})
	m := &BandwidthMap{Epoch: now.Unix(), StoreVersion: h.puts}
	for i, rec := range all {
		if i+1 < len(all) && all[i+1].Path == rec.Path {
			continue
		}
		m.Entries = append(m.Entries, rec)
	}
	return m
}

// TestMemStoreMatchesHistoryModel is the differential test for the
// latest-value store: over seeded Put streams with repeated (Path, At)
// keys and timestamps arriving out of order, the published map text is
// byte-identical to the one the full-history model yields.
func TestMemStoreMatchesHistoryModel(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewMemStore()
		ref := &historyModel{recs: make(map[Record]Record)}
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
			ref.put(rec)
		}
		m, err := BuildMap(s, now)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.Bytes(), ref.buildMap(now).Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: map differs from the history model:\n got %s\nwant %s", seed, got, want)
		}
		s.Close()
	}
}

// scanFile opens the log at path, scans it, and closes it again.
func scanFile(t *testing.T, path string) Snapshot {
	t.Helper()
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, err := s.Scan(Query{})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestFileStoreReplayFreshestWins: a log whose newer line for a path comes
// before an older one reopens with the newer record.
func TestFileStoreReplayFreshestWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.log")
	log := `{"path":{"From":"h1","To":"h2"},"at":20,"mbps":50}` + "\n" +
		`{"path":{"From":"h1","To":"h2"},"at":10,"mbps":40}` + "\n"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := scanFile(t, path)
	want := Record{Path: Path{From: "h1", To: "h2"}, At: 20, Mbps: 50}
	if len(snap.Records) != 1 || snap.Records[0] != want {
		t.Fatalf("reopened %+v, want only %+v", snap.Records, want)
	}
	if snap.Version != 2 {
		t.Fatalf("reopened version = %d, want the 2 replayed lines", snap.Version)
	}
}

// TestFileStoreCompactsOnOpen: 1000 Puts on 3 paths shrink to 3 log lines
// on reopen, and the store scans identically before and after.
func TestFileStoreCompactsOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.log")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		rec := Record{Path: Path{From: "h0", To: fmt.Sprintf("h%d", 1+i%3)}, At: int64(1 + i), Mbps: float64(i)}
		if _, err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	before, err := s.Scan(Query{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	after := scanFile(t, path)
	if !reflect.DeepEqual(after.Records, before.Records) {
		t.Fatalf("compacting reopen changed the records:\n got %+v\nwant %+v", after.Records, before.Records)
	}
	if after.Version != 1000 {
		t.Fatalf("compacting reopen version = %d, want the 1000 replayed lines", after.Version)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 3 {
		t.Fatalf("compacted log has %d lines, want 3", n)
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Fatalf("compaction left %d files behind, want only the log", len(entries))
	}
	again := scanFile(t, path)
	if !reflect.DeepEqual(again.Records, before.Records) || again.Version != 3 {
		t.Fatalf("reopen of the compacted log = %d records at version %d, want %d at 3",
			len(again.Records), again.Version, len(before.Records))
	}
}

// FuzzFileStoreReplay: no log bytes panic OpenFileStore, and an open that
// succeeds leaves a log that a second open replays to the same records.
func FuzzFileStoreReplay(f *testing.F) {
	valid := `{"path":{"From":"h1","To":"h2"},"at":10,"mbps":40}` + "\n" +
		`{"path":{"From":"h2","To":"h1"},"at":15,"mbps":30,"latencyMs":1.5}` + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"path":{"From":"h9","To":"h8"},"at":99`))
	f.Add([]byte(strings.TrimSuffix(valid, "\n")))         // a whole record is not committed without its newline
	f.Add([]byte(strings.ReplaceAll(valid, "\n", "\r\n"))) // CR stays inside the line's byte count
	f.Add([]byte(`{"path":{"From":"h1","To":"h2"},"at":20,"mbps":50}` + "\n" +
		`{"path":{"From":"h1","To":"h2"},"at":10,"mbps":40}` + "\n"))
	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(t.TempDir(), "coord.log")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(path)
		if err != nil {
			return
		}
		first, err := s.Scan(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		second := scanFile(t, path)
		if !reflect.DeepEqual(first.Records, second.Records) {
			t.Fatalf("second open replayed different records:\n got %+v\nwant %+v", second.Records, first.Records)
		}
	})
}
