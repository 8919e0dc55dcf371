package vnet

import (
	"encoding/json"
	"maps"
	"slices"
	"testing"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

func vmMAC(id int) ethernet.MAC { return ethernet.VMMAC(id) }

func frameTo(dst, src ethernet.MAC, payload int) *ethernet.Frame {
	return &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeApp, Payload: make([]byte, payload)}
}

func TestNewStarConnectsEveryone(t *testing.T) {
	o, err := NewStar([]string{"h1", "h2", "h3"}, vttif.Config{}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	waitFor(t, "star links", func() bool { return len(o.Proxy.Daemon.Peers()) == 3 })
	for _, n := range o.Nodes {
		if _, ok := n.Daemon.Link("proxy"); !ok {
			t.Fatalf("%s has no proxy link", n.Daemon.Name())
		}
	}
	if o.Node("h2") == nil || o.Node("nope") != nil {
		t.Fatal("Node lookup broken")
	}
}

func TestConnectPairAddsDirectLink(t *testing.T) {
	o, err := NewStar([]string{"h1", "h2"}, vttif.Config{}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.ConnectPair("h1", "h2"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "direct link", func() bool {
		_, ok := o.Node("h1").Daemon.Link("h2")
		return ok
	})
	if err := o.ConnectPair("h1", "ghost"); err == nil {
		t.Fatal("ConnectPair with unknown node should error")
	}
}

func TestGlobalViewVTTIFAggregation(t *testing.T) {
	o, err := NewStar([]string{"h1", "h2"}, vttif.Config{Alpha: 1, HoldUpdates: 1}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.StartReporting(20 * time.Millisecond)

	// Simulate VM traffic counted at h1's daemon.
	h1 := o.Node("h1").Daemon
	src, dst := vmMAC(1), vmMAC(2)
	for i := 0; i < 50; i++ {
		h1.Traffic().AddFrame(src, dst, 1500)
	}
	waitFor(t, "vttif push", func() bool {
		return o.View.Agg.Rates()[vttif.Pair{Src: src, Dst: dst}] > 0
	})
}

// TestGlobalViewDropsTinyIntervalReport: a peer's report whose interval
// turns bytes into an infinite rate is dropped whole, so it cannot pin an
// edge at +Inf and crowd every real edge out of the topology.
func TestGlobalViewDropsTinyIntervalReport(t *testing.T) {
	view := NewGlobalView(vttif.Config{Alpha: 1, HoldUpdates: 1})
	src, dst := macToHex(vmMAC(1)), macToHex(vmMAC(2))
	report := func(interval string) []byte {
		return []byte(`{"kind":"vttif","intervalSec":` + interval +
			`,"pairs":[{"src":"` + src + `","dst":"` + dst + `","bytes":1000}]}`)
	}
	view.HandleControl("h1", report("1"))
	before := view.Agg.Rates()
	if len(before) != 1 {
		t.Fatalf("valid report gave rates %v", before)
	}
	view.HandleControl("h2", report("1e-308"))
	if got := view.Agg.Rates(); !maps.Equal(got, before) {
		t.Fatalf("tiny-interval report changed rates: %v -> %v", before, got)
	}
}

func TestGlobalViewWrenPush(t *testing.T) {
	o, err := NewStar([]string{"h1", "h2"}, vttif.Config{}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.StartReporting(20 * time.Millisecond)

	// Drive real frames h1 -> h2 so h1's Wren sees link traffic: the
	// frames go via the proxy; the h1->proxy link is what Wren measures.
	h1 := o.Node("h1").Daemon
	h1.SetDefaultRoute("proxy")
	var sink collector
	o.Node("h2").Daemon.AttachVM(vmMAC(2), sink.port())
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A burst of frames, then a pause: Wren train material.
			for i := 0; i < 30; i++ {
				h1.InjectFrame(frameTo(vmMAC(2), vmMAC(1), 1400))
			}
			time.Sleep(30 * time.Millisecond)
		}
	}()
	defer close(stop)
	waitFor(t, "wren path measurement at proxy", func() bool {
		p, ok := o.View.Store.Get(coord.Path{From: "h1", To: "proxy"})
		return ok && (p.Mbps > 0 || p.LatencyMs > 0)
	})
}

// TestWrenReportWireFormat pins the "wren" control report: coord.Record
// as JSON, the optional fields absent when zero, unknown fields ignored on
// receipt, and the view keyed by the link the report arrived on rather
// than by what the payload claims. A record without an observation time
// goes on the wire but not into the view's store.
func TestWrenReportWireFormat(t *testing.T) {
	full := coord.Record{Path: coord.Path{From: "h1", To: "h2"}, At: 1700000000123456789,
		Mbps: 42.5, LatencyMs: 1.25, Kind: "lower-bound", Quality: 0.75}
	bare := coord.Record{Path: coord.Path{From: "h1", To: "h3"}, Mbps: 7}
	raw, err := json.Marshal(controlMsg{Kind: "wren", Wren: []coord.Record{full, bare}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"kind":"wren","wren":[` +
		`{"path":{"From":"h1","To":"h2"},"at":1700000000123456789,"mbps":42.5,"latencyMs":1.25,"kind":"lower-bound","quality":0.75},` +
		`{"path":{"From":"h1","To":"h3"},"mbps":7}]}`
	if string(raw) != want {
		t.Fatalf("report =\n%s\nwant\n%s", raw, want)
	}

	view := NewGlobalView(vttif.Config{})
	view.HandleControl("h1", raw)
	view.HandleControl("h9", []byte(`{"kind":"wren","hops":3,"wren":[`+
		`{"path":{"From":"h1","To":"h4"},"at":5,"mbps":9,"jitterMs":2},`+ // unknown fields; From is not the sender
		`{"remote":"h5","mbps":9,"bwFound":true}]}`)) // a pre-Record entry: no path, dropped
	snap, err := view.Store.Scan(coord.Query{})
	if err != nil {
		t.Fatal(err)
	}
	wantPaths := []coord.Record{full, {Path: coord.Path{From: "h9", To: "h4"}, At: 5, Mbps: 9}}
	if !slices.Equal(snap.Records, wantPaths) {
		t.Fatalf("view after reports = %+v\nwant %+v", snap.Records, wantPaths)
	}
}
