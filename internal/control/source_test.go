package control

import (
	"encoding/xml"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"freemeasure/internal/soap"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// estimate answers one pair outside a snapshot, on a fresh sensing context
// (Snapshot shares one across all pairs).
func (s *ViewSource) estimate(from, to string) (bw, lat float64, prov PathProvenance) {
	return s.newSense().estimate(from, to)
}

// measured is a bandwidth-only record observed age ago.
func measured(from, to string, mbps float64, age time.Duration) coord.Record {
	return coord.Record{Path: coord.Path{From: from, To: to}, Mbps: mbps,
		At: time.Now().Add(-age).UnixNano()}
}

// active is a hub prober's record of the pair, observed age ago.
func active(from, to string, mbps float64, age time.Duration) coord.Record {
	r := measured(from, to, mbps, age)
	r.Kind = "active"
	return r
}

// fusionView builds a ViewSource over a bare GlobalView with the given
// fusion hook.
func fusionView(f *Fusion) (*ViewSource, *vnet.GlobalView) {
	view := vnet.NewGlobalView(vttif.Config{Alpha: 1, HoldUpdates: 1})
	src := &ViewSource{
		View:   view,
		Hosts:  func() []string { return []string{"a", "b"} },
		VMs:    func() []VMInfo { return nil },
		Fusion: f,
	}
	return src, view
}

// TestFusionFillsUnmeasuredPair: a pair the passive plane never measured
// is kicked, and the active record the kick stores answers it at once,
// attributed as "active-probe".
func TestFusionFillsUnmeasuredPair(t *testing.T) {
	var asked [][2]string
	src, view := fusionView(&Fusion{})
	src.Fusion.Kick = func(from, to string) {
		asked = append(asked, [2]string{from, to})
		view.Store.Put(active(from, to, 42, 0))
	}
	bw, _, prov := src.estimate("a", "b")
	if bw != 42 {
		t.Fatalf("bandwidth = %v, want the active 42", bw)
	}
	if prov.Source != "active-probe" || prov.Mbps != 42 {
		t.Fatalf("provenance = %+v, want active-probe/42", prov)
	}
	if len(asked) != 1 || asked[0] != [2]string{"a", "b"} {
		t.Fatalf("Kick calls = %v", asked)
	}
}

// TestFusionDefersToFreshPassive: a fresh passive measurement answers and
// the pair is never kicked.
func TestFusionDefersToFreshPassive(t *testing.T) {
	src, view := fusionView(&Fusion{
		Kick: func(from, to string) {
			t.Fatalf("kicked despite fresh passive measurement (%s->%s)", from, to)
		},
	})
	view.Store.Put(measured("a", "b", 77, 0))
	bw, _, prov := src.estimate("a", "b")
	if bw != 77 || prov.Source != "direct" {
		t.Fatalf("got %v/%s, want the passive 77/direct", bw, prov.Source)
	}
}

// TestFusionOverridesStalePassive: once the passive measurement ages past
// StaleAfter the pair is kicked, and the fresher active record answers.
func TestFusionOverridesStalePassive(t *testing.T) {
	src, view := fusionView(&Fusion{StaleAfter: 10 * time.Second})
	src.Fusion.Kick = func(from, to string) { view.Store.Put(active(from, to, 33, time.Second)) }
	view.Store.Put(measured("a", "b", 77, time.Minute))
	bw, _, prov := src.estimate("a", "b")
	if bw != 33 || prov.Source != "active-probe" {
		t.Fatalf("got %v/%s, want the active 33/active-probe", bw, prov.Source)
	}
}

// TestFusionActiveRecordKeepsItsAge: an active answer is aged from its
// own observation time, like every other record — a leg measured 5 s ago
// is reported 5 s old, not fresh.
func TestFusionActiveRecordKeepsItsAge(t *testing.T) {
	src, view := fusionView(&Fusion{})
	now := time.Now()
	src.now = func() time.Time { return now }
	src.Fusion.Kick = func(from, to string) {
		r := active(from, to, 33, 0)
		r.At = now.Add(-5 * time.Second).UnixNano()
		view.Store.Put(r)
	}
	bw, _, prov := src.estimate("a", "b")
	if bw != 33 || prov.Source != "active-probe" || prov.Kind != "active" {
		t.Fatalf("got %v/%s/%s, want the active 33/active-probe/active", bw, prov.Source, prov.Kind)
	}
	if prov.AgeSec < 5 || prov.AgeSec > 6 {
		t.Fatalf("age_sec = %v, want the active observation's ~5", prov.AgeSec)
	}
}

// TestReportedObservationKeepsItsAge is the regression test for the
// re-stamping bug: a "wren" control report whose record was observed an
// hour ago must reach the sense phase an hour old — not as fresh as the
// report that carried it — so the fusion policy sees it is stale and
// kicks the active plane.
func TestReportedObservationKeepsItsAge(t *testing.T) {
	asked := 0
	src, view := fusionView(&Fusion{
		StaleAfter: 30 * time.Second,
		Kick:       func(from, to string) { asked++ },
	})
	at := time.Now().Add(-time.Hour).UnixNano()
	view.HandleControl("a", []byte(fmt.Sprintf(
		`{"kind":"wren","wren":[{"path":{"From":"a","To":"b"},"at":%d,"mbps":77,"kind":"exact","quality":1}]}`, at)))
	bw, _, prov := src.estimate("a", "b")
	if bw != 77 || prov.Source != "direct" {
		t.Fatalf("got %v/%s, want the reported 77/direct", bw, prov.Source)
	}
	if prov.AgeSec < 3599 || prov.AgeSec > 3660 {
		t.Fatalf("age_sec = %v, want the observation's ~3600, not the report's", prov.AgeSec)
	}
	if asked != 1 {
		t.Fatalf("kicked %d times for an hour-old measurement, want 1", asked)
	}
}

// TestFusionFallsThroughWhenActiveHasNothing: a kick that stores nothing
// leaves the default estimate and its provenance untouched.
func TestFusionFallsThroughWhenActiveHasNothing(t *testing.T) {
	src, _ := fusionView(&Fusion{Kick: func(from, to string) {}})
	bw, _, prov := src.estimate("a", "b")
	if prov.Source != "default" || bw != 100 {
		t.Fatalf("got %v/%s, want the 100/default fallback", bw, prov.Source)
	}
}

// TestFusionNilIsInert: a ViewSource without a fusion hook behaves as
// before.
func TestFusionNilIsInert(t *testing.T) {
	src, _ := fusionView(nil)
	bw, _, prov := src.estimate("a", "b")
	if bw != 100 || prov.Source != "default" {
		t.Fatalf("got %v/%s, want 100/default", bw, prov.Source)
	}
}

// mapView builds a ViewSource whose only measurement source beyond
// defaults is a published bandwidth map.
func mapView(m *coord.BandwidthMap) (*ViewSource, *vnet.GlobalView) {
	view := vnet.NewGlobalView(vttif.Config{Alpha: 1, HoldUpdates: 1})
	src := &ViewSource{
		View:  view,
		Hosts: func() []string { return []string{"a", "b"} },
		VMs:   func() []VMInfo { return nil },
		Map:   func() *coord.BandwidthMap { return m },
	}
	return src, view
}

// TestMapFillsUnmeasuredPair: with nothing in the live view, the
// published map's entry supplies the estimate, attributed as "map".
func TestMapFillsUnmeasuredPair(t *testing.T) {
	src, _ := mapView(&coord.BandwidthMap{Entries: []coord.Record{
		{Path: coord.Path{From: "a", To: "b"}, Mbps: 62, LatencyMs: 2.5,
			Kind: "exact", Quality: 0.8, At: time.Now().Add(-5 * time.Second).UnixNano()},
	}})
	bw, lat, prov := src.estimate("a", "b")
	if bw != 62 || lat != 2.5 {
		t.Fatalf("estimate = %v/%v, want the map's 62/2.5", bw, lat)
	}
	if prov.Source != "map" || prov.Kind != "exact" || prov.Quality != 0.8 {
		t.Fatalf("provenance = %+v, want map/exact/0.8", prov)
	}
	if prov.AgeSec < 4 || prov.AgeSec > 60 {
		t.Fatalf("provenance age = %v, want ~5s from the entry timestamp", prov.AgeSec)
	}
}

// TestMapReverseDirection: like the live view, the reverse direction's
// map entry stands in when the demanded one is absent.
func TestMapReverseDirection(t *testing.T) {
	src, _ := mapView(&coord.BandwidthMap{Entries: []coord.Record{
		{Path: coord.Path{From: "b", To: "a"}, Mbps: 48},
	}})
	bw, _, prov := src.estimate("a", "b")
	if bw != 48 || prov.Source != "map" {
		t.Fatalf("got %v/%s, want the reverse map entry 48/map", bw, prov.Source)
	}
}

// TestLiveViewBeatsMap: a live Wren measurement outranks the published
// map — the map is for pairs the live view cannot answer.
func TestLiveViewBeatsMap(t *testing.T) {
	src, view := mapView(&coord.BandwidthMap{Entries: []coord.Record{
		{Path: coord.Path{From: "a", To: "b"}, Mbps: 10},
	}})
	view.Store.Put(measured("a", "b", 90, 0))
	bw, _, prov := src.estimate("a", "b")
	if bw != 90 || prov.Source != "direct" {
		t.Fatalf("got %v/%s, want the live 90/direct over the map", bw, prov.Source)
	}
}

// TestMapAbsentFallsThrough: a nil map (not fetched yet) and a missing
// entry both fall through to the hub legs and the defaults.
func TestMapAbsentFallsThrough(t *testing.T) {
	src, _ := mapView(nil)
	if bw, _, prov := src.estimate("a", "b"); bw != 100 || prov.Source != "default" {
		t.Fatalf("nil map: got %v/%s, want 100/default", bw, prov.Source)
	}
	src2, _ := mapView(&coord.BandwidthMap{Entries: []coord.Record{
		{Path: coord.Path{From: "x", To: "y"}, Mbps: 5},
	}})
	if bw, _, prov := src2.estimate("a", "b"); bw != 100 || prov.Source != "default" {
		t.Fatalf("missing entry: got %v/%s, want 100/default", bw, prov.Source)
	}
}

// TestFusionOverridesStaleMapEntry: the fusion policy treats an aged map
// entry like any stale passive measurement and kicks the pair, and the
// fresher active record wins.
func TestFusionOverridesStaleMapEntry(t *testing.T) {
	src, view := mapView(&coord.BandwidthMap{Entries: []coord.Record{
		{Path: coord.Path{From: "a", To: "b"}, Mbps: 20,
			At: time.Now().Add(-time.Minute).UnixNano()},
	}})
	src.Fusion = &Fusion{
		StaleAfter: 10 * time.Second,
		Kick:       func(from, to string) { view.Store.Put(active(from, to, 88, 0)) },
	}
	bw, _, prov := src.estimate("a", "b")
	if bw != 88 || prov.Source != "active-probe" {
		t.Fatalf("got %v/%s, want the active 88 over the stale map entry", bw, prov.Source)
	}
}

// soapSense builds a SOAPSource's sensing context over hosts a and b, each
// served by a stub Wren SOAP endpoint answering from the records that
// start at it; a host listed in down gets an endpoint that fails every
// call.
func soapSense(t *testing.T, paths []coord.Record, down []string) *sense {
	src := &SOAPSource{Hosts: []string{"a", "b"}, Timeout: time.Second}
	for _, host := range src.Hosts {
		var h http.Handler = http.NotFoundHandler()
		if !slices.Contains(down, host) {
			find := func(remote string) (coord.Record, bool) {
				i := slices.IndexFunc(paths, func(r coord.Record) bool {
					return r.Path == coord.Path{From: host, To: remote}
				})
				if i < 0 {
					return coord.Record{}, false
				}
				return paths[i], true
			}
			svc := soap.NewServer()
			svc.Handle("GetAvailableBandwidth", func(body []byte) (interface{}, error) {
				var req wren.AvailBWRequest
				if err := xml.Unmarshal(body, &req); err != nil {
					return nil, err
				}
				r, ok := find(req.Remote)
				return &wren.AvailBWResponse{Found: ok, Mbps: r.Mbps, Kind: r.Kind, Quality: r.Quality}, nil
			})
			svc.Handle("GetLatency", func(body []byte) (interface{}, error) {
				var req wren.LatencyRequest
				if err := xml.Unmarshal(body, &req); err != nil {
					return nil, err
				}
				r, ok := find(req.Remote)
				return &wren.LatencyResponse{Found: ok && r.LatencyMs > 0, Ms: r.LatencyMs}, nil
			})
			h = svc
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		src.Endpoints = append(src.Endpoints, srv.URL)
	}
	return src.newSense()
}

// TestEstimateChainComposition reads one pair, a->b, from both kinds of
// store. On a star's live view: nothing measured, the two hub legs
// composed, a direct measurement outranking the legs, and the reverse
// direction standing in. Over SOAP endpoints:
// the same direct -> reverse -> default order with no hub to compose
// through and no observation time to age. Each row pins the numbers and
// the provenance (source, estimator kind, age).
func TestEstimateChainComposition(t *testing.T) {
	now := time.Now()
	meas := func(from, to string, mbps, latMs float64, kind string, age time.Duration) coord.Record {
		return coord.Record{Path: coord.Path{From: from, To: to}, Mbps: mbps, LatencyMs: latMs,
			Kind: kind, Quality: 0.5, At: now.Add(-age).UnixNano()}
	}
	legs := []coord.Record{
		meas("a", "proxy", 50, 2, "up", 10*time.Second),
		meas("proxy", "b", 30, 3, "down", 40*time.Second),
	}
	cases := []struct {
		name           string
		paths          []coord.Record
		soap           bool     // sensed through SOAPSource, not ViewSource
		down           []string // SOAP hosts whose endpoint fails every call
		bw, lat        float64
		source, kind   string
		minAge, maxAge float64
	}{
		{name: "default", bw: 100, lat: 1, source: "default"},
		// Bottleneck of the legs, sum of their latencies, the bottleneck
		// leg's estimator, the older leg's age.
		{name: "hub-legs", paths: legs, bw: 30, lat: 5, source: "hub-legs", kind: "down", minAge: 40, maxAge: 100},
		// One leg is enough to compose; the other contributes nothing.
		{name: "one leg", paths: legs[:1], bw: 50, lat: 2, source: "hub-legs", kind: "up", minAge: 10, maxAge: 40},
		// A leg faster than the default is capped by it and names no estimator.
		{name: "leg above default", paths: []coord.Record{meas("a", "proxy", 400, 2, "up", time.Second)},
			bw: 100, lat: 2, source: "hub-legs", minAge: 1, maxAge: 40},
		{name: "direct wins", paths: append([]coord.Record{meas("a", "b", 70, 0, "exact", 5*time.Second)}, legs...),
			bw: 70, lat: 1, source: "direct", kind: "exact", minAge: 5, maxAge: 40},
		{name: "reverse stands in", paths: append([]coord.Record{meas("b", "a", 60, 4, "exact", 5*time.Second)}, legs...),
			bw: 60, lat: 4, source: "reverse", kind: "exact", minAge: 5, maxAge: 40},
		// Legs are looked up in both directions too.
		{name: "reversed legs", paths: []coord.Record{meas("proxy", "a", 20, 1, "up", time.Second), meas("b", "proxy", 25, 1, "down", time.Second)},
			bw: 20, lat: 2, source: "hub-legs", kind: "up", minAge: 1, maxAge: 40},
		// A record that carries no bandwidth is no answer, whatever else it has.
		{name: "latency-only record", paths: []coord.Record{meas("a", "b", 0, 4, "exact", time.Second)},
			bw: 100, lat: 1, source: "default"},

		{name: "soap default", soap: true, bw: 100, lat: 1, source: "default"},
		{name: "soap direct", soap: true, paths: []coord.Record{meas("a", "b", 70, 2, "lower-bound", 0), meas("b", "a", 60, 4, "exact", 0)},
			bw: 70, lat: 2, source: "direct", kind: "lower-bound"},
		{name: "soap reverse only", soap: true, paths: []coord.Record{meas("b", "a", 60, 4, "upper-bound", 0)},
			bw: 60, lat: 4, source: "reverse", kind: "upper-bound"},
		{name: "soap latency absent", soap: true, paths: []coord.Record{meas("a", "b", 70, 0, "exact", 0)},
			bw: 70, lat: 1, source: "direct", kind: "exact"},
		// A failing endpoint is no answer: its peer's measurement stands
		// in, and with none the pair falls to the defaults.
		{name: "soap endpoint error, reverse stands in", soap: true, down: []string{"a"},
			paths: []coord.Record{meas("a", "b", 70, 2, "exact", 0), meas("b", "a", 60, 4, "exact", 0)},
			bw:    60, lat: 4, source: "reverse", kind: "exact"},
		{name: "soap endpoint error", soap: true, down: []string{"a"}, paths: []coord.Record{meas("a", "b", 70, 2, "exact", 0)},
			bw: 100, lat: 1, source: "default"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sn *sense
			if tc.soap {
				sn = soapSense(t, tc.paths, tc.down)
			} else {
				src, view := fusionView(nil)
				for _, r := range tc.paths {
					view.Store.Put(r)
				}
				sn = src.newSense()
			}
			bw, lat, prov := sn.estimate("a", "b")
			if bw != tc.bw || lat != tc.lat {
				t.Fatalf("estimate = %v Mbit/s / %v ms, want %v / %v", bw, lat, tc.bw, tc.lat)
			}
			if prov.Mbps != bw || prov.LatencyMs != lat || prov.From != "a" || prov.To != "b" {
				t.Fatalf("provenance numbers = %+v, want the returned estimate for a->b", prov)
			}
			if prov.Source != tc.source || prov.Kind != tc.kind {
				t.Fatalf("provenance = %s/%q, want %s/%q", prov.Source, prov.Kind, tc.source, tc.kind)
			}
			if prov.AgeSec < tc.minAge || prov.AgeSec > tc.maxAge {
				t.Fatalf("age = %vs, want within [%v, %v]", prov.AgeSec, tc.minAge, tc.maxAge)
			}
		})
	}
}
