package bench

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"freemeasure/internal/wren/coord"
)

// mapPlane is the coordination tier as wrenrepod assembles it — store,
// BuildMap, Publisher mounted at /map on a loopback HTTP server — plus the
// consumer side vnetd -map-url runs: GET, ParseBandwidthMap, and a
// generation gate that never accepts a regressing map. adapt_shift and
// measure_feed both refresh their estimates through it.
type mapPlane struct {
	store  *coord.MemStore
	mirror *coord.FileStore // traced runs only: the same Puts against the WAL backend
	pub    *coord.Publisher
	url    string

	srv       *http.Server
	served    sync.WaitGroup
	transport *http.Transport
	client    *http.Client

	cur       *coord.BandwidthMap // last accepted map
	regressed int                 // fetched maps refused by the generation gate
}

// newMapPlane starts the server. mirrorPath, when non-empty, opens a
// FileStore there that mirrors every Put (its cost is a per-layer metric).
func newMapPlane(mirrorPath string) (*mapPlane, error) {
	p := &mapPlane{store: coord.NewMemStore(), pub: coord.NewPublisher()}
	if mirrorPath != "" {
		fs, err := coord.OpenFileStore(mirrorPath)
		if err != nil {
			return nil, fmt.Errorf("open mirror store: %w", err)
		}
		p.mirror = fs
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.closeStores()
		return nil, fmt.Errorf("listen map server: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/map", p.pub)
	p.srv = &http.Server{Handler: mux}
	p.url = "http://" + ln.Addr().String() + "/map"
	p.served.Add(1)
	go func() {
		defer p.served.Done()
		p.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	p.transport = &http.Transport{MaxIdleConnsPerHost: 1}
	p.client = &http.Client{Transport: p.transport, Timeout: 5 * time.Second}
	return p, nil
}

func (p *mapPlane) closeStores() {
	p.store.Close()
	if p.mirror != nil {
		p.mirror.Close()
	}
}

func (p *mapPlane) close() {
	p.transport.CloseIdleConnections()
	p.srv.Close()
	p.served.Wait()
	p.closeStores()
}

// put stores one record (and mirrors it when a mirror is open).
func (p *mapPlane) put(op *OpTrace, rec coord.Record) error {
	sp := op.Start("coord", "put")
	_, err := p.store.Put(rec)
	sp.End()
	if err != nil {
		return fmt.Errorf("store put %s: %w", rec.Path, err)
	}
	if p.mirror != nil {
		sp = op.Start("coord", "fileput")
		_, err = p.mirror.Put(rec)
		sp.End()
		if err != nil {
			return fmt.Errorf("mirror put %s: %w", rec.Path, err)
		}
	}
	return nil
}

// refresh rebuilds, publishes, fetches and parses the map, accepting it
// only if its generation does not regress. It reports whether a map was
// accepted; a refused or malformed map is the caller's failed op.
func (p *mapPlane) refresh(op *OpTrace) error {
	sp := op.Start("coord", "buildmap")
	m, err := coord.BuildMap(p.store, time.Now())
	sp.End()
	if err != nil {
		return fmt.Errorf("build map: %w", err)
	}
	sp = op.Start("coord", "publish")
	p.pub.Publish(m)
	sp.End()

	sp = op.Start("coord", "fetch_parse")
	defer sp.End()
	resp, err := p.client.Get(p.url)
	if err != nil {
		return fmt.Errorf("fetch map: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("read map: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetch map: status %d", resp.StatusCode)
	}
	got, err := coord.ParseBandwidthMap(body)
	if err != nil {
		return fmt.Errorf("parse map: %w", err)
	}
	if p.cur != nil && got.Generation < p.cur.Generation {
		p.regressed++
		return fmt.Errorf("map generation regressed: %d after %d", got.Generation, p.cur.Generation)
	}
	p.cur = got
	return nil
}
