package coord_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"freemeasure/internal/control"
	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// coordSource wraps the ViewSource so each sense phase first runs the
// coordination tier — the map is rebuilt from the store, published, and
// re-fetched over HTTP — and only then snapshots the view, exactly the
// order a live deployment sees.
type coordSource struct {
	inner *control.ViewSource
	run   func()
	last  atomic.Pointer[control.Snapshot]
}

func (s *coordSource) Snapshot() (*control.Snapshot, error) {
	s.run()
	snap, err := s.inner.Snapshot()
	if err == nil {
		s.last.Store(snap)
	}
	return snap, err
}

// TestCoordEndToEnd is the acceptance path of the coordination platform:
// on a three-proxy mesh, observations of all six host paths land in the
// store, the versioned bandwidth map is built, atomically published,
// served over HTTP, parsed back, and a controller cycle senses through it
// — estimates attributed "map" — and feeds a VADAPT solve, with the map
// publication recorded under the cycle's one trace ID.
func TestCoordEndToEnd(t *testing.T) {
	proxies := []string{"pa", "pb", "pc"}
	hosts := []string{"h1", "h2", "h3"}
	o, err := vnet.NewMesh(proxies, hosts, vttif.Config{Alpha: 1, HoldUpdates: 1}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)

	fr := obs.NewFlightRecorder(0)

	// The coordination tier: store and publisher behind a real HTTP
	// server.
	st := coord.NewMemStore()
	t.Cleanup(func() { st.Close() })
	pub := coord.NewPublisher()
	pub.SetFlight(fr)
	srv := httptest.NewServer(pub)
	t.Cleanup(srv.Close)

	// VM placement: one VM per host. The VTTIF demand seeded below flows
	// vm0->vm1 and vm1->vm2.
	macs := []ethernet.MAC{ethernet.VMMAC(0), ethernet.VMMAC(1), ethernet.VMMAC(2)}
	hostOf := map[ethernet.MAC]string{macs[0]: "h1", macs[1]: "h2", macs[2]: "h3"}

	// Seed traffic into the view the controller senses.
	o.View.Agg.Update("h1", map[vttif.Pair]uint64{{Src: macs[0], Dst: macs[1]}: 60_000}, 1)
	o.View.Agg.Update("h2", map[vttif.Pair]uint64{{Src: macs[1], Dst: macs[2]}: 40_000}, 1)

	// Deterministic "measurements" of every host path: each has a known
	// bandwidth the provenance assertions can check against.
	bwOf := func(p coord.Path) float64 {
		return 40 + 10*float64(p.From[1]-'0') + float64(p.To[1]-'0')
	}
	for _, f := range hosts {
		for _, to := range hosts {
			if f == to {
				continue
			}
			p := coord.Path{From: f, To: to}
			if _, err := st.Put(coord.Record{
				Path: p, At: time.Now().UnixNano(),
				Mbps: bwOf(p), LatencyMs: 1.5, Kind: "exact", Quality: 0.9,
			}); err != nil {
				t.Fatalf("store put: %v", err)
			}
		}
	}

	var fetched atomic.Pointer[coord.BandwidthMap]
	src := &coordSource{
		inner: &control.ViewSource{
			View:  o.View,
			Hosts: func() []string { return hosts },
			VMs: func() []control.VMInfo {
				out := make([]control.VMInfo, len(macs))
				for i, m := range macs {
					out[i] = control.VMInfo{MAC: m, Host: hostOf[m]}
				}
				return out
			},
			Map: func() *coord.BandwidthMap { return fetched.Load() },
		},
	}
	src.run = func() {
		// Rebuild, publish, and consume the map the way vnetd does: over
		// the wire, through the parser.
		m, err := coord.BuildMap(st, time.Now())
		if err != nil {
			t.Errorf("build map: %v", err)
			return
		}
		pub.Publish(m)
		resp, err := http.Get(srv.URL + "/map")
		if err != nil {
			t.Errorf("fetch map: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /map: %s", resp.Status)
			return
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("read map: %v", err)
			return
		}
		parsed, err := coord.ParseBandwidthMap(data)
		if err != nil {
			t.Errorf("parse served map: %v\n%s", err, data)
			return
		}
		fetched.Store(parsed)
	}

	reg := obs.NewRegistry()
	c, err := control.New(control.Config{
		Source: src,
		Applier: control.OverlayApplier{
			Overlay:  o,
			Migrator: vnet.MigratorFunc(func(ethernet.MAC, string, string) error { return nil }),
		},
		Metrics:   control.NewMetrics(reg),
		Flight:    fr,
		TraceSink: pub.SetTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunCycle()
	if res.Err != nil {
		t.Fatalf("cycle: %s", res.Summary())
	}
	if res.Trace == "" {
		t.Fatal("cycle has no trace ID")
	}

	snap, err := st.Scan(coord.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 6 {
		t.Fatalf("store holds %d records, want 6", len(snap.Records))
	}

	// The published, HTTP-served, re-parsed map covers every path with the
	// publisher's generation stamped on.
	m := fetched.Load()
	if m == nil {
		t.Fatal("no map fetched")
	}
	if len(m.Entries) != 6 || m.Generation == 0 || m.StoreVersion != snap.Version {
		t.Fatalf("fetched map = gen %d, store_version %d, %d entries; want gen>0, %d, 6",
			m.Generation, m.StoreVersion, len(m.Entries), snap.Version)
	}

	// The sensed problem consumed the map: every host-pair estimate is
	// attributed "map" and carries the measured bandwidth.
	sensed := src.last.Load()
	if sensed == nil {
		t.Fatal("no snapshot captured")
	}
	if len(sensed.Provenance) == 0 {
		t.Fatal("snapshot has no provenance")
	}
	for _, prov := range sensed.Provenance {
		if prov.Source != "map" {
			t.Errorf("pair %s>%s sensed from %q, want the published map", prov.From, prov.To, prov.Source)
			continue
		}
		if want := bwOf(coord.Path{From: prov.From, To: prov.To}); prov.Mbps != want {
			t.Errorf("pair %s>%s sensed %v Mbit/s, want the measured %v", prov.From, prov.To, prov.Mbps, want)
		}
		if prov.Kind != "exact" || prov.Quality != 0.9 {
			t.Errorf("pair %s>%s provenance kind/quality = %s/%v, want exact/0.9", prov.From, prov.To, prov.Kind, prov.Quality)
		}
	}
	// And VADAPT saw those numbers: the problem graph's h1->h2 capacity is
	// the map entry, not a default.
	if sensed.Problem == nil {
		t.Fatal("snapshot has no problem")
	}
	edge, okEdge := sensed.Problem.Hosts.Edge(0, 1)
	if want := bwOf(coord.Path{From: "h1", To: "h2"}); !okEdge || edge.BW != want {
		t.Fatalf("problem edge h1->h2 = %+v ok=%v, want BW %v", edge, okEdge, want)
	}

	// Everything the coordination tier did during the cycle is correlated
	// under the cycle's trace: the controller's root span and the map
	// publication.
	counts := map[string]int{}
	for _, e := range fr.Events(0) {
		if e.Trace == res.Trace {
			counts[e.Name]++
		}
	}
	if counts["cycle"] == 0 {
		t.Error("no cycle span under the trace")
	}
	if counts["map-publish"] != 1 {
		t.Errorf("%d map-publish events under the cycle trace, want 1", counts["map-publish"])
	}
}
