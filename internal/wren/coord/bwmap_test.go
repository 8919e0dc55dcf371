package coord

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestBandwidthMapRoundTrip: serialize → parse is the identity for any
// randomly generated map (seeded property test).
func TestBandwidthMapRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99, 20260808} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			kinds := []string{"", "exact", "residual", "probe"}
			m := &BandwidthMap{
				Epoch:        rng.Int63n(2_000_000_000),
				Generation:   rng.Uint64() % 1e6,
				StoreVersion: rng.Uint64() % 1e6,
			}
			nPaths := rng.Intn(20)
			used := make(map[Path]bool)
			for len(m.Entries) < nPaths {
				p := Path{
					From: fmt.Sprintf("h%d", rng.Intn(10)),
					To:   fmt.Sprintf("h%d", rng.Intn(10)),
				}
				if p.From == p.To || used[p] {
					continue
				}
				used[p] = true
				e := Record{Path: p, Mbps: rng.Float64() * 1000}
				if rng.Intn(2) == 0 {
					e.LatencyMs = rng.Float64() * 50
				}
				if rng.Intn(2) == 0 {
					e.Kind = kinds[rng.Intn(len(kinds))]
				}
				if rng.Intn(2) == 0 {
					e.Quality = rng.Float64()
				}
				if rng.Intn(2) == 0 {
					e.At = rng.Int63n(1e18) + 1
				}
				m.Entries = append(m.Entries, e)
			}
			got, err := ParseBandwidthMap(m.Bytes())
			if err != nil {
				t.Fatalf("parse of own serialization failed: %v\n%s", err, m.Bytes())
			}
			// Serialize sorts; compare against the sorted original.
			want := *m
			want.Entries = append([]Record(nil), m.Entries...)
			sortEntries(want.Entries)
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, &want)
			}
		})
	}
}

func sortEntries(es []Record) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Path.Less(es[j-1].Path); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// TestParseBandwidthMapRejects: each corruption a consumer must not
// silently accept.
func TestParseBandwidthMapRejects(t *testing.T) {
	good := (&BandwidthMap{
		Epoch: 1700000000, Generation: 3, StoreVersion: 7,
		Entries: []Record{
			{Path: Path{From: "h1", To: "h2"}, Mbps: 40},
			{Path: Path{From: "h2", To: "h1"}, Mbps: 35},
		},
	}).Bytes()
	if _, err := ParseBandwidthMap(good); err != nil {
		t.Fatalf("baseline map rejected: %v", err)
	}
	cases := map[string]string{
		"empty":            "",
		"bad epoch":        strings.Replace(string(good), "1700000000", "not-a-number", 1),
		"bad generation":   strings.Replace(string(good), "generation=3", "generation=x", 1),
		"major version":    strings.Replace(string(good), "version=1.0.0", "version=2.0.0", 1),
		"missing headers":  "1700000000\n=====\n",
		"no separator":     strings.Replace(string(good), "=====\n", "", 1),
		"count mismatch":   strings.Replace(string(good), "path_count=2", "path_count=5", 1),
		"truncated entry":  strings.TrimSuffix(string(good), "path=h2>h1 bw_mbps=35\n") + "path=h2>h1\n",
		"unsorted entries": strings.Replace(string(good), "path=h1>h2 bw_mbps=40\npath=h2>h1 bw_mbps=35", "path=h2>h1 bw_mbps=35\npath=h1>h2 bw_mbps=40", 1),
		"duplicate path":   strings.Replace(string(good), "path=h2>h1 bw_mbps=35", "path=h1>h2 bw_mbps=35", 1),
		"bad float":        strings.Replace(string(good), "bw_mbps=40", "bw_mbps=forty", 1),
	}
	for name, in := range cases {
		if _, err := ParseBandwidthMap([]byte(in)); err == nil {
			t.Errorf("%s: parse accepted corrupt input:\n%s", name, in)
		}
	}
}

// TestParseBandwidthMapForwardCompat: unknown headers and entry fields
// from a future 1.x publisher parse cleanly.
func TestParseBandwidthMapForwardCompat(t *testing.T) {
	in := "1700000000\n" +
		"version=1.9.2\n" +
		"generation=12\n" +
		"store_version=90\n" +
		"new_header=whatever\n" +
		"path_count=1\n" +
		"=====\n" +
		"path=h1>h2 bw_mbps=40 jitter_ms=0.3 kind=exact\n"
	m, err := ParseBandwidthMap([]byte(in))
	if err != nil {
		t.Fatalf("future-minor map rejected: %v", err)
	}
	if m.Generation != 12 || len(m.Entries) != 1 || m.Entries[0].Mbps != 40 || m.Entries[0].Kind != "exact" {
		t.Fatalf("future-minor map mangled: %+v", m)
	}
}

// TestLookup exercises the sorted binary search, including nil receiver.
func TestLookup(t *testing.T) {
	var nilMap *BandwidthMap
	if _, ok := nilMap.Lookup("h1", "h2"); ok {
		t.Fatal("nil map claimed a hit")
	}
	m := &BandwidthMap{Entries: []Record{
		{Path: Path{From: "h1", To: "h2"}, Mbps: 40},
		{Path: Path{From: "h1", To: "h3"}, Mbps: 50},
		{Path: Path{From: "h2", To: "h1"}, Mbps: 35},
	}}
	if e, ok := m.Lookup("h1", "h3"); !ok || e.Mbps != 50 {
		t.Fatalf("Lookup(h1,h3) = %+v, %v", e, ok)
	}
	if _, ok := m.Lookup("h3", "h1"); ok {
		t.Fatal("Lookup invented an entry")
	}
}

// TestBuildMap: the freshest record per path wins, stamped with the
// snapshot version.
func TestBuildMap(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	puts := []Record{
		{Path: Path{From: "h1", To: "h2"}, At: 10, Mbps: 40},
		{Path: Path{From: "h1", To: "h2"}, At: 20, Mbps: 55, Kind: "exact"},
		{Path: Path{From: "h2", To: "h1"}, At: 5, Mbps: 30, LatencyMs: 1.2},
	}
	for _, r := range puts {
		if _, err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Unix(1_700_000_100, 0)
	m, err := BuildMap(s, now)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != now.Unix() || m.StoreVersion != 3 {
		t.Fatalf("map header = epoch %d store_version %d, want %d / 3", m.Epoch, m.StoreVersion, now.Unix())
	}
	if len(m.Entries) != 2 {
		t.Fatalf("map has %d entries, want 2: %+v", len(m.Entries), m.Entries)
	}
	if e, _ := m.Lookup("h1", "h2"); e.Mbps != 55 || e.At != 20 || e.Kind != "exact" {
		t.Fatalf("h1>h2 entry is not the freshest record: %+v", e)
	}
	if e, _ := m.Lookup("h2", "h1"); e.Mbps != 30 || e.LatencyMs != 1.2 {
		t.Fatalf("h2>h1 entry mangled: %+v", e)
	}
}

// TestPublisherGenerationMonotonic: every publish bumps the generation;
// Current never returns an older map; nil publishes are ignored.
func TestPublisherGenerationMonotonic(t *testing.T) {
	p := NewPublisher()
	if p.Current() != nil {
		t.Fatal("map published out of thin air")
	}
	var last uint64
	for i := 0; i < 5; i++ {
		stamped := p.Publish(&BandwidthMap{Epoch: int64(1000 + i)})
		if stamped.Generation <= last {
			t.Fatalf("generation went %d -> %d", last, stamped.Generation)
		}
		last = stamped.Generation
		if cur := p.Current(); cur.Generation != last || cur.Epoch != int64(1000+i) {
			t.Fatalf("Current() = %+v, want generation %d epoch %d", cur, last, 1000+i)
		}
	}
	if p.Publish(nil) != nil {
		t.Fatal("nil publish produced a map")
	}
	if p.Current().Generation != last {
		t.Fatal("nil publish disturbed the current map")
	}
}

// FuzzBandwidthMapParse is the satellite fuzz target: the parser must
// never panic, and anything it accepts must re-serialize and re-parse to
// the same map (parse∘serialize is idempotent on the accepted set).
func FuzzBandwidthMapParse(f *testing.F) {
	f.Add([]byte((&BandwidthMap{
		Epoch: 1700000000, Generation: 3, StoreVersion: 7,
		Entries: []Record{
			{Path: Path{From: "h1", To: "h2"}, Mbps: 40.5, LatencyMs: 1.25, Kind: "exact", Quality: 0.9, At: 123456789},
			{Path: Path{From: "h2", To: "h1"}, Mbps: 35},
		},
	}).Bytes()))
	f.Add([]byte("1700000000\nversion=1.0.0\ngeneration=1\npath_count=0\n=====\n"))
	f.Add([]byte("1700000000\nversion=2.0.0\ngeneration=1\npath_count=0\n=====\n"))
	f.Add([]byte("1700000000\nversion=1.0.0\ngeneration=1\npath_count=1\n=====\npath=h1>h2 bw_mbps=40"))
	f.Add([]byte("1700000000\nversion=1.0.0\ngeneration=1\n"))
	f.Add([]byte("-5\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseBandwidthMap(data)
		if err != nil {
			return
		}
		again, err := ParseBandwidthMap(m.Bytes())
		if err != nil {
			t.Fatalf("accepted map failed to re-parse: %v\noriginal input:\n%q\nre-serialized:\n%s", err, data, m.Bytes())
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("parse/serialize not idempotent:\nfirst  %+v\nsecond %+v", m, again)
		}
	})
}
