package control

import (
	"io"
	"log/slog"
	"math/rand"
	"sort"
	"testing"
	"time"

	"freemeasure/internal/estimator"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// senseAt is the fixed sense time of the tests in this file.
var senseAt = time.Unix(1_700_000_000, 0)

// stamped is a passive record of the pair observed age before senseAt (a
// negative age is a stamp from the future).
func stamped(from, to string, mbps float64, age time.Duration) coord.Record {
	return coord.Record{Path: coord.Path{From: from, To: to}, Mbps: mbps, Kind: "exact",
		At: senseAt.Add(-age).UnixNano()}
}

// fixedSource is a ViewSource over view sensing at senseAt.
func fixedSource(m *coord.BandwidthMap, view *vnet.GlobalView) *ViewSource {
	return &ViewSource{
		View:  view,
		Hosts: func() []string { return []string{"a", "b"} },
		VMs:   func() []VMInfo { return nil },
		Map:   func() *coord.BandwidthMap { return m },
		now:   func() time.Time { return senseAt },
	}
}

func newView() *vnet.GlobalView {
	return vnet.NewGlobalView(vttif.Config{Alpha: 1, HoldUpdates: 1})
}

// TestFreshestRuleWhereOrderDisagreed pins the cases in which the
// freshest-At rule and the former fixed order (live views, then the map,
// then the hub legs, then the defaults, with an active answer overriding
// any stale one) give different answers; the first is a fresher map entry
// winning. parent is what the fixed order answered.
func TestFreshestRuleWhereOrderDisagreed(t *testing.T) {
	cases := []struct {
		name         string
		live, bwmap  []coord.Record
		kick         *coord.Record // stored by the fusion kick
		bw           float64
		source       string
		parent       string
		parentMbps   float64
		ageSec       float64
		parentReason string
	}{
		{name: "map fresher than live",
			live:  []coord.Record{stamped("a", "b", 90, time.Minute)},
			bwmap: []coord.Record{stamped("a", "b", 30, time.Second)},
			bw:    30, source: "map", ageSec: 1,
			parent: "direct", parentMbps: 90, parentReason: "the live view ranked first"},
		{name: "map in the demanded direction, live only in reverse",
			live:  []coord.Record{stamped("b", "a", 90, time.Second)},
			bwmap: []coord.Record{stamped("a", "b", 30, time.Minute)},
			bw:    30, source: "map", ageSec: 60,
			parent: "reverse", parentMbps: 90, parentReason: "the live link tried both directions before the map"},
		{name: "stale passive against an older active record",
			live: []coord.Record{stamped("a", "b", 90, time.Minute)},
			kick: &coord.Record{Path: coord.Path{From: "a", To: "b"}, Mbps: 30, Kind: "active",
				At: senseAt.Add(-2 * time.Minute).UnixNano()},
			bw: 90, source: "direct", ageSec: 60,
			parent: "active-probe", parentMbps: 30, parentReason: "an active answer overrode any stale one"},
		{name: "hub legs from the map",
			bwmap: []coord.Record{stamped("a", "proxy", 30, time.Second)},
			bw:    30, source: "hub-legs", ageSec: 1,
			parent: "default", parentMbps: 100, parentReason: "legs were composed from the live views only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view := newView()
			for _, r := range tc.live {
				view.Store.Put(r)
			}
			src := fixedSource(&coord.BandwidthMap{Entries: tc.bwmap}, view)
			if tc.kick != nil {
				src.Fusion = &Fusion{StaleAfter: 30 * time.Second, Kick: func(string, string) { view.Store.Put(*tc.kick) }}
			}
			bw, _, prov := src.estimate("a", "b")
			if bw != tc.bw || prov.Source != tc.source || prov.AgeSec != tc.ageSec {
				t.Fatalf("got %v/%s aged %vs, want %v/%s aged %vs (the fixed order answered %v/%s: %s)",
					bw, prov.Source, prov.AgeSec, tc.bw, tc.source, tc.ageSec, tc.parentMbps, tc.parent, tc.parentReason)
			}
		})
	}
}

// TestSkewedClockCannotPinPair: a record stamped after the sense time
// counts as stamped at the sense time, for the comparison and for its
// age. It ties with a record observed at the sense time, and the tie goes
// to the store before the map, so a clock running an hour ahead neither reads
// as an hour fresher than everything else nor gets a negative age.
func TestSkewedClockCannotPinPair(t *testing.T) {
	future, fresh := -time.Hour, time.Duration(0)
	cases := []struct {
		name   string
		view   []coord.Record // in the view's store
		bwmap  []coord.Record
		bw     float64
		source string
	}{
		{name: "future-stamped live against a fresh map entry",
			view:  []coord.Record{stamped("a", "b", 50, future)},
			bwmap: []coord.Record{stamped("a", "b", 70, fresh)},
			bw:    50, source: "direct"},
		{name: "future-stamped map entry against a fresh live record",
			view:  []coord.Record{stamped("a", "b", 50, fresh)},
			bwmap: []coord.Record{stamped("a", "b", 70, future)},
			bw:    50, source: "direct"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view := newView()
			for _, r := range tc.view {
				view.Store.Put(r)
			}
			src := fixedSource(&coord.BandwidthMap{Entries: tc.bwmap}, view)
			bw, _, prov := src.estimate("a", "b")
			if bw != tc.bw || prov.Source != tc.source || prov.AgeSec != 0 {
				t.Fatalf("got %v/%s aged %vs, want %v/%s aged 0s", bw, prov.Source, prov.AgeSec, tc.bw, tc.source)
			}
		})
	}
}

// TestActiveRecordOutlivesItsCycle: what a kick stores is a measurement
// like any other. A second ViewSource over the same view, with no fusion
// at all, answers the pair — in both directions — from the stored
// active record.
func TestActiveRecordOutlivesItsCycle(t *testing.T) {
	view := newView()
	p, err := NewHubProber(nil, wren.NewMonitor("hub", wren.Config{}), view.Store, 5*time.Second,
		slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	p.now = func() time.Time { return senseAt }
	p.probe = func(peer string, _ estimator.Probe) error {
		t.Errorf("train toward %s: both legs are fresh", peer)
		return nil
	}
	// Both legs measured a second ago.
	for peer, mbps := range map[string]float64{"a": 40, "b": 60} {
		p.set.Observe(peer, estimator.Observation{At: senseAt.Add(-time.Second).UnixNano(), RateMbps: mbps, Probe: true})
	}
	kicking := fixedSource(nil, view)
	kicking.Fusion = &Fusion{StaleAfter: 5 * time.Second, Kick: p.Kick}
	bw, _, first := kicking.estimate("a", "b")
	if first.Source != "active-probe" || bw <= 0 {
		t.Fatalf("kicked pair = %+v, want an active-probe answer", first)
	}

	later := fixedSource(nil, view)
	for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}} {
		_, _, prov := later.estimate(pair[0], pair[1])
		if prov.Source != "active-probe" || prov.Kind != "active" || prov.Mbps != first.Mbps || prov.AgeSec != 1 {
			t.Fatalf("%s>%s without fusion = %+v, want the stored active %v Mbit/s aged 1s",
				pair[0], pair[1], prov, first.Mbps)
		}
	}
}

// TestFreshestRuleDifferential replays seeded random sequences of live
// reports and hub-prober active records (into the view) and published
// map entries, with timestamps
// that tie, lie in the future or are missing, and compares every answer
// ViewSource gives with the rule written out plainly: the freshest record
// with a bandwidth for the pair, then for the reverse pair, then the hub
// legs, then the default.
//
// Where that rule and the former fixed order disagree (see
// TestFreshestRuleWhereOrderDisagreed):
//   - a map entry fresher than the live record of the same direction;
//   - a map entry in the demanded direction against a live record only
//     in the reverse direction;
//   - a stale passive record against an active record older than it;
//   - hub legs known only from the map.
func TestFreshestRuleDifferential(t *testing.T) {
	nodes := []string{"a", "b", "c", "proxy"}
	hosts := nodes[:3]
	now := senseAt.UnixNano()
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		view := newView()
		held := map[coord.Path]coord.Record{} // what the view's store should hold
		mapped := map[coord.Path]coord.Record{}
		var log []coord.Record
		for n := rng.Intn(30); n > 0; n-- {
			from := nodes[rng.Intn(len(nodes))]
			to := nodes[rng.Intn(len(nodes))]
			if from == to {
				continue
			}
			r := coord.Record{Path: coord.Path{From: from, To: to},
				Mbps: float64(rng.Intn(5) * 25), LatencyMs: float64(rng.Intn(3)), Quality: rng.Float64()}
			switch k := rng.Intn(10); {
			case k == 0: // no timestamp
			case k == 1: // a clock running ahead
				r.At = now + int64(rng.Intn(3)+1)*int64(time.Minute)
			default: // coarse ages, so ties are common
				r.At = now - int64(rng.Intn(6))*int64(10*time.Second)
			}
			switch rng.Intn(3) {
			case 0:
				r.Kind = "exact"
			case 1:
				r.Kind = "active"
			case 2:
				r.Kind = "lower-bound"
				mapped[r.Path] = r
				log = append(log, r)
				continue
			}
			view.Store.Put(r)
			log = append(log, r)
			if cur, ok := held[r.Path]; r.At > 0 && (!ok || r.At >= cur.At) {
				held[r.Path] = r
			}
		}
		var m *coord.BandwidthMap
		if len(mapped) > 0 || rng.Intn(2) == 0 {
			m = &coord.BandwidthMap{}
			for _, r := range mapped {
				m.Entries = append(m.Entries, r)
			}
			sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Path.Less(m.Entries[j].Path) })
		} else {
			mapped = nil
		}

		// freshest is the model: candidates in source order, filtered,
		// clamped to the sense time, and the first of the largest At kept.
		freshest := func(from, to string) (coord.Record, string, bool) {
			for dir, p := range []coord.Path{{From: from, To: to}, {From: to, To: from}} {
				type cand struct {
					rec   coord.Record
					isMap bool
				}
				var cands []cand
				if r, ok := held[p]; ok {
					cands = append(cands, cand{r, false})
				}
				if r, ok := mapped[p]; ok {
					cands = append(cands, cand{r, true})
				}
				var live []cand
				for _, c := range cands {
					if c.rec.Mbps > 0 {
						c.rec.At = min(c.rec.At, now)
						live = append(live, c)
					}
				}
				if len(live) == 0 {
					continue
				}
				sort.SliceStable(live, func(i, j int) bool { return live[i].rec.At > live[j].rec.At })
				best := live[0]
				switch {
				case best.rec.Kind == "active":
					return best.rec, "active-probe", true
				case best.isMap:
					return best.rec, "map", true
				case dir == 0:
					return best.rec, "direct", true
				}
				return best.rec, "reverse", true
			}
			return coord.Record{}, "", false
		}
		model := func(from, to string) PathProvenance {
			r, source, ok := freshest(from, to)
			if !ok {
				r, source = coord.Record{Mbps: 100}, "default"
				for _, leg := range [][2]string{{from, "proxy"}, {"proxy", to}} {
					l, _, ok := freshest(leg[0], leg[1])
					if !ok {
						continue
					}
					source = "hub-legs"
					if l.Mbps < r.Mbps {
						r.Mbps, r.Kind, r.Quality = l.Mbps, l.Kind, l.Quality
					}
					r.LatencyMs += l.LatencyMs
					if l.At != 0 && (r.At == 0 || l.At < r.At) {
						r.At = l.At
					}
				}
			}
			prov := PathProvenance{From: from, To: to, Mbps: r.Mbps, LatencyMs: r.LatencyMs,
				Source: source, Kind: r.Kind, Quality: r.Quality}
			if prov.LatencyMs <= 0 {
				prov.LatencyMs = 1
			}
			if r.At != 0 {
				prov.AgeSec = float64(now-r.At) / 1e9
			}
			return prov
		}

		src := &ViewSource{
			View:  view,
			Hosts: func() []string { return hosts },
			VMs:   func() []VMInfo { return nil },
			Map:   func() *coord.BandwidthMap { return m },
			now:   func() time.Time { return senseAt },
		}
		for _, from := range hosts {
			for _, to := range hosts {
				if from == to {
					continue
				}
				bw, lat, got := src.estimate(from, to)
				want := model(from, to)
				if got != want || bw != want.Mbps || lat != want.LatencyMs {
					t.Fatalf("seed %d, %s>%s:\n got %+v\nwant %+v\nafter puts %+v\nmap %+v",
						seed, from, to, got, want, log, m)
				}
			}
		}
	}
}
