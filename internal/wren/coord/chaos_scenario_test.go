package coord_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"freemeasure/internal/chaos"
	"freemeasure/internal/obs"
	"freemeasure/internal/wren/coord"
)

// chaosSeed returns the scenario seed: CHAOS_SEED when set (the CI matrix
// pins several), 42 otherwise.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		return seed
	}
	return 42
}

// dumpTrace writes the flight-recorder contents as JSON under
// CHAOS_TRACE_DIR (no-op when unset). CI uploads these on failure so a
// broken seed can be replayed with its full fault timeline.
func dumpTrace(t *testing.T, fr *obs.FlightRecorder, seed int64) {
	dir := os.Getenv("CHAOS_TRACE_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos trace dir: %v", err)
		return
	}
	data, err := json.MarshalIndent(fr.Events(0), "", "  ")
	if err != nil {
		t.Logf("chaos trace marshal: %v", err)
		return
	}
	name := fmt.Sprintf("%s-seed%d.json", t.Name(), seed)
	name = filepath.Join(dir, filepath.Base(name))
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Logf("chaos trace write: %v", err)
	}
}

// outageStore wraps a Store with a chaos-controlled outage switch: while
// down, every operation fails. It stands in for a remote store backend
// whose node is rebooting.
type outageStore struct {
	coord.Store
	down atomic.Bool
}

var errStoreDown = errors.New("store node down")

func (o *outageStore) Put(rec coord.Record) (uint64, error) {
	if o.down.Load() {
		return 0, errStoreDown
	}
	return o.Store.Put(rec)
}

func (o *outageStore) Scan(q coord.Query) (coord.Snapshot, error) {
	if o.down.Load() {
		return coord.Snapshot{}, errStoreDown
	}
	return o.Store.Scan(q)
}

// TestChaosStoreOutageMapNeverRegresses runs the build-and-publish loop
// across a store outage: while the store is down rebuilds fail, the last
// good map stays published, and the generation — watched continuously —
// never moves backwards. After recovery the map advances again with the
// post-outage data.
func TestChaosStoreOutageMapNeverRegresses(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	clk := chaos.NewFakeClock()
	fr := obs.NewFlightRecorder(512)

	st := &outageStore{Store: coord.NewMemStore()}
	defer st.Close()
	fab := chaos.NewOverlayFabric(nil)
	fab.RegisterService("store", chaos.Service{
		Down: func() error { st.down.Store(true); return nil },
		Up:   func() error { st.down.Store(false); return nil },
	})

	pub := coord.NewPublisher()
	pub.SetFlight(fr)
	pub.SetTrace(obs.NewTrace())

	lastGen := uint64(0)
	checkGen := func() {
		if m := pub.Current(); m != nil {
			if m.Generation < lastGen {
				dumpTrace(t, fr, seed)
				t.Fatalf("published generation regressed: %d -> %d", lastGen, m.Generation)
			}
			lastGen = m.Generation
		}
	}
	rebuild := func() error {
		m, err := coord.BuildMap(st, clk.Now())
		if err != nil {
			return err
		}
		pub.Publish(m)
		checkGen()
		return nil
	}

	put := func(mbps float64) error {
		_, err := st.Put(coord.Record{
			Path: coord.Path{From: "h1", To: "h2"}, At: clk.Now().UnixNano(), Mbps: mbps,
		})
		return err
	}

	// Healthy phase: data flows, maps publish.
	if err := put(40); err != nil {
		t.Fatal(err)
	}
	if err := rebuild(); err != nil {
		t.Fatalf("healthy rebuild failed: %v", err)
	}
	genBefore := pub.Current().Generation
	entryBefore, ok := pub.Current().Lookup("h1", "h2")
	if !ok {
		t.Fatal("healthy map missing the measured path")
	}

	// Outage phase: every rebuild fails; the last good map must keep
	// serving, identically, with no generation movement in either direction.
	clear, err := fab.Inject(chaos.Fault{Kind: chaos.Outage}, "store")
	if err != nil {
		t.Fatal(err)
	}
	failedRebuilds := 0
	for i := 0; i < 20; i++ {
		clk.Advance(time.Duration(100+rng.Intn(400)) * time.Millisecond)
		if err := put(50); err == nil {
			t.Fatal("put succeeded during the store outage")
		}
		if err := rebuild(); err != nil {
			failedRebuilds++
		}
		cur := pub.Current()
		if cur == nil || cur.Generation != genBefore {
			dumpTrace(t, fr, seed)
			t.Fatalf("outage disturbed the published map: %+v (want generation %d)", cur, genBefore)
		}
		if e, ok := cur.Lookup("h1", "h2"); !ok || e != entryBefore {
			dumpTrace(t, fr, seed)
			t.Fatalf("outage mutated the served entry: %+v -> %+v", entryBefore, e)
		}
	}
	if failedRebuilds != 20 {
		t.Fatalf("%d/20 rebuilds failed during outage, want all", failedRebuilds)
	}

	// Recovery phase: fresh data lands, the next rebuild advances the
	// generation past the pre-outage value and carries the new measurement.
	clear()
	clk.Advance(time.Second)
	if err := put(75); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if err := rebuild(); err != nil {
		t.Fatalf("rebuild after recovery: %v", err)
	}
	cur := pub.Current()
	if cur.Generation <= genBefore {
		dumpTrace(t, fr, seed)
		t.Fatalf("recovery did not advance the generation: %d -> %d", genBefore, cur.Generation)
	}
	if e, ok := cur.Lookup("h1", "h2"); !ok || e.Mbps != 75 {
		t.Fatalf("recovered map lacks the post-outage measurement: %+v", e)
	}
}
