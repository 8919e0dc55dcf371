package coord

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// StoreConformance is the executable contract every Store backend must
// satisfy. Run it from a backend's test file:
//
//	StoreConformance(t, func(t *testing.T) Store { ... })
//
// newStore must return a fresh, empty store per invocation; cleanup goes
// through t.Cleanup. The suite covers the freshest-wins rule (one sorted
// record per path, ties replace, stale Puts still versioned and watched),
// bounded record count, versioned-snapshot monotonicity, watch delivery,
// close semantics, and concurrent Put/Scan (meaningful under -race).
func StoreConformance(t *testing.T, newStore func(t *testing.T) Store) {
	rec := func(from, to string, at int64, mbps float64) Record {
		return Record{Path: Path{From: from, To: to}, At: at, Mbps: mbps}
	}

	t.Run("FreshestWins", func(t *testing.T) {
		s := newStore(t)
		ch, cancel, err := s.Watch(16)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		// Out of order across paths and timestamps; the last Put ties h1>h2
		// at 20 and must replace.
		puts := []Record{
			rec("h2", "h1", 30, 10), rec("h1", "h2", 20, 50), rec("h1", "h2", 10, 40),
			rec("h1", "h3", 5, 70), rec("h2", "h1", 25, 15), rec("h1", "h2", 20, 55),
		}
		var last uint64
		for _, r := range puts {
			v, err := s.Put(r)
			if err != nil {
				t.Fatalf("Put(%v): %v", r, err)
			}
			if v <= last {
				t.Fatalf("Put(%v) returned version %d, not above %d", r, v, last)
			}
			last = v
		}
		// Older-At Puts replace nothing but are still versioned and watched.
		for i, w := range puts {
			select {
			case got := <-ch:
				if got != w {
					t.Fatalf("watch[%d] = %+v, want %+v", i, got, w)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("watch delivered %d of %d puts", i, len(puts))
			}
		}
		snap, err := s.Scan(Query{})
		if err != nil {
			t.Fatal(err)
		}
		want := []Record{rec("h1", "h2", 20, 55), rec("h1", "h3", 5, 70), rec("h2", "h1", 30, 10)}
		if len(snap.Records) != len(want) {
			t.Fatalf("scan returned %d records, want one per path (%d): %+v", len(snap.Records), len(want), snap.Records)
		}
		for i, w := range want {
			if snap.Records[i] != w {
				t.Errorf("scan[%d] = %+v, want %+v", i, snap.Records[i], w)
			}
		}
		if snap.Version != last {
			t.Errorf("scan version = %d, want %d", snap.Version, last)
		}
	})

	t.Run("ScanOrdering", func(t *testing.T) {
		s := newStore(t)
		// Insert deliberately out of order across paths and timestamps.
		for _, r := range []Record{
			rec("h3", "h1", 7, 20), rec("h2", "h1", 30, 10), rec("h1", "h2", 20, 50),
			rec("h1", "h2", 10, 40), rec("h1", "h3", 5, 70), rec("h2", "h1", 25, 15),
		} {
			if _, err := s.Put(r); err != nil {
				t.Fatalf("Put(%v): %v", r, err)
			}
		}
		snap, err := s.Scan(Query{})
		if err != nil {
			t.Fatal(err)
		}
		want := []Record{
			rec("h1", "h2", 20, 50), rec("h1", "h3", 5, 70),
			rec("h2", "h1", 30, 10), rec("h3", "h1", 7, 20),
		}
		if len(snap.Records) != len(want) {
			t.Fatalf("scan returned %d records, want %d: %+v", len(snap.Records), len(want), snap.Records)
		}
		for i, w := range want {
			if snap.Records[i] != w {
				t.Errorf("scan[%d] = %+v, want %+v", i, snap.Records[i], w)
			}
		}
	})

	t.Run("ReplaceAtKey", func(t *testing.T) {
		s := newStore(t)
		if _, err := s.Put(rec("h1", "h2", 10, 40)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put(rec("h1", "h2", 10, 90)); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Scan(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Records) != 1 || snap.Records[0].Mbps != 90 {
			t.Fatalf("replace at (path,timestamp) key failed: %+v", snap.Records)
		}
	})

	t.Run("BoundedRecords", func(t *testing.T) {
		s := newStore(t)
		for i := 0; i < 10000; i++ {
			if _, err := s.Put(rec("h0", fmt.Sprintf("h%d", 1+i%4), int64(1+i), float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := s.Scan(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Records) != 4 {
			t.Fatalf("10000 puts over 4 paths scanned back as %d records, want 4", len(snap.Records))
		}
	})

	t.Run("Validation", func(t *testing.T) {
		s := newStore(t)
		for _, bad := range []Record{
			{},
			{Path: Path{From: "h1"}, At: 1},
			{Path: Path{From: "h1", To: "h2"}, At: 0},
		} {
			if _, err := s.Put(bad); err == nil {
				t.Errorf("Put accepted invalid record %+v", bad)
			}
		}
	})

	t.Run("VersionMonotonic", func(t *testing.T) {
		s := newStore(t)
		if got := s.Version(); got != 0 {
			t.Fatalf("empty store version = %d, want 0", got)
		}
		var last uint64
		for i := 1; i <= 10; i++ {
			v, err := s.Put(rec("h1", "h2", int64(i), float64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if v <= last {
				t.Fatalf("Put #%d returned version %d, not above %d", i, v, last)
			}
			last = v
			snap, err := s.Scan(Query{})
			if err != nil {
				t.Fatal(err)
			}
			if snap.Version < v {
				t.Fatalf("scan version %d below the Put version %d it contains", snap.Version, v)
			}
		}
		if got := s.Version(); got != last {
			t.Fatalf("Version() = %d, want %d", got, last)
		}
	})

	t.Run("WatchDelivery", func(t *testing.T) {
		s := newStore(t)
		ch, cancel, err := s.Watch(64)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		var want []Record
		for i := 1; i <= 8; i++ {
			r := rec("h1", "h2", int64(i*10), float64(i))
			want = append(want, r)
			if _, err := s.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		for i, w := range want {
			select {
			case got := <-ch:
				if got != w {
					t.Fatalf("watch[%d] = %+v, want %+v", i, got, w)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("watch delivered %d of %d records", i, len(want))
			}
		}
		// Cancel stops delivery and closes the channel.
		cancel()
		if _, err := s.Put(rec("h3", "h4", 1, 1)); err != nil {
			t.Fatal(err)
		}
		if r, ok := <-ch; ok && (r.Path == Path{From: "h3", To: "h4"}) {
			t.Fatal("cancelled watcher received a post-cancel record")
		}
	})

	t.Run("CloseSemantics", func(t *testing.T) {
		s := newStore(t)
		ch, cancel, err := s.Watch(1)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if _, err := s.Put(rec("h1", "h2", 1, 1)); err == nil {
			t.Error("Put succeeded on a closed store")
		}
		if _, err := s.Scan(Query{}); err == nil {
			t.Error("Scan succeeded on a closed store")
		}
		select {
		case _, ok := <-ch:
			if ok {
				t.Error("closed store delivered a record")
			}
		case <-time.After(5 * time.Second):
			t.Error("Close did not close the watch channel")
		}
	})

	t.Run("ConcurrentPutScan", func(t *testing.T) {
		s := newStore(t)
		const writers, perWriter = 8, 50
		var writerWG, scanWG sync.WaitGroup
		stopScan := make(chan struct{})
		scanWG.Add(1)
		go func() { // concurrent scanner: versions never regress mid-flight
			defer scanWG.Done()
			var last uint64
			for {
				select {
				case <-stopScan:
					return
				default:
				}
				snap, err := s.Scan(Query{})
				if err != nil {
					t.Errorf("concurrent scan: %v", err)
					return
				}
				if snap.Version < last {
					t.Errorf("scan version went backwards: %d -> %d", last, snap.Version)
					return
				}
				last = snap.Version
			}
		}()
		for w := 0; w < writers; w++ {
			writerWG.Add(1)
			go func(w int) {
				defer writerWG.Done()
				from := fmt.Sprintf("w%d", w)
				for i := 1; i <= perWriter; i++ {
					if _, err := s.Put(rec(from, "sink", int64(i), float64(i))); err != nil {
						t.Errorf("concurrent put: %v", err)
						return
					}
				}
			}(w)
		}
		writerWG.Wait()
		close(stopScan)
		scanWG.Wait()
		snap, err := s.Scan(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(snap.Records); got != writers {
			t.Fatalf("after concurrent puts: %d records, want one per path (%d)", got, writers)
		}
		if snap.Version != uint64(writers*perWriter) {
			t.Fatalf("final version %d, want %d", snap.Version, writers*perWriter)
		}
		for i, r := range snap.Records {
			if r.At != perWriter {
				t.Fatalf("path %v kept At %d, want the freshest (%d)", r.Path, r.At, perWriter)
			}
			if i > 0 && !snap.Records[i-1].Path.Less(r.Path) {
				t.Fatalf("paths unsorted under concurrency at %d: %v then %v", i, snap.Records[i-1].Path, r.Path)
			}
		}
	})
}
