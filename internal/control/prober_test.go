package control

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freemeasure/internal/estimator"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// syncBuffer is a log sink the prober's train goroutines may write to
// while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// fakeTrain is one probe train the hub prober started: it blocks until
// the test sends its outcome on release.
type fakeTrain struct {
	peer    string
	at      time.Time
	release chan error
}

// TestChaosHubProberBudget drives the hub prober that vnetd -est-fusion
// runs on a fake clock, at a 1 s and at vnetd's default 2 s controller
// interval. Every cycle a controller senses all pairs of six peers whose
// legs are missing or stale, and senses again while a train is still
// out. The hub must never have more than one train in flight, never kick
// a peer twice within staleAfter (also after a failed train), re-probe
// every peer within one cycle of its leg going stale, and once trains
// complete the next snapshot must attribute every pair to active-probe,
// aged from the older leg's last observation.
func TestChaosHubProberBudget(t *testing.T) {
	for _, step := range []time.Duration{time.Second, 2 * time.Second} {
		t.Run("step="+step.String(), func(t *testing.T) { testHubProberBudget(t, step) })
	}
}

func testHubProberBudget(t *testing.T, step time.Duration) {
	const (
		staleAfter = 5 * time.Second
		cycles     = 60
		failing    = "p2" // its first two trains fail
	)
	var peers []string
	capacity := make(map[string]float64) // Mbit/s: a faster train self-congests
	for i := 0; i < 6; i++ {
		peer := fmt.Sprintf("p%d", i)
		peers = append(peers, peer)
		capacity[peer] = float64(20 * (i + 1))
	}

	// The fake clock ends where the wall clock starts; the sense phase
	// reads the same fake clock as the prober.
	wallStart := time.Now()
	var clock atomic.Int64
	start := wallStart.Add(-(cycles + 1) * step)
	clock.Store(start.UnixNano())
	logs := &syncBuffer{}
	view := vnet.NewGlobalView(vttif.Config{Alpha: 1, HoldUpdates: 1})
	// No daemon: the fake transport below replaces Daemon.Probe.
	p, err := NewHubProber(nil, wren.NewMonitor("hub", wren.Config{}), view.Store, staleAfter,
		slog.New(slog.NewTextHandler(logs, nil)))
	if err != nil {
		t.Fatal(err)
	}
	p.now = func() time.Time { return time.Unix(0, clock.Load()) }
	idle := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return !p.inFlight
	}

	started := make(chan fakeTrain)
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	p.probe = func(peer string, pr estimator.Probe) error {
		mu.Lock()
		inFlight++
		maxInFlight = max(maxInFlight, inFlight)
		mu.Unlock()
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		tr := fakeTrain{peer: peer, at: p.now(), release: make(chan error)}
		started <- tr
		if err := <-tr.release; err != nil {
			return err
		}
		// The hub's monitor sees the train and hands the verdict to the
		// leg's estimator.
		p.set.Observe(peer, estimator.Observation{
			At: p.now().UnixNano(), RateMbps: pr.RateMbps,
			Congested: pr.RateMbps > capacity[peer], Probe: true,
		})
		return nil
	}

	src := &ViewSource{
		View:   view,
		Hosts:  func() []string { return peers },
		VMs:    func() []VMInfo { return nil },
		Fusion: &Fusion{StaleAfter: staleAfter, Kick: p.Kick},
		now:    p.now,
	}
	sense := func() *Snapshot {
		t.Helper()
		snap, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	kicks := make(map[string][]time.Time)
	failures := 0
	// finishTrains completes, one at a time, every train the last
	// snapshots started or queued, until the hub is idle again.
	finishTrains := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !idle() {
			var tr fakeTrain
			select {
			case tr = <-started:
			default:
				if time.Now().After(deadline) {
					t.Fatal("the hub never went idle")
				}
				runtime.Gosched()
				continue
			}
			if prev := kicks[tr.peer]; len(prev) > 0 && tr.at.Sub(prev[len(prev)-1]) < staleAfter {
				t.Fatalf("%s kicked at %v and again %v later, floor %v",
					tr.peer, prev[len(prev)-1], tr.at.Sub(prev[len(prev)-1]), staleAfter)
			}
			kicks[tr.peer] = append(kicks[tr.peer], tr.at)
			var err error
			if tr.peer == failing && failures < 2 {
				failures++
				err = errors.New("link down")
			}
			tr.release <- err
		}
	}

	for c := 0; c < cycles; c++ {
		clock.Add(int64(step))
		sense()
		if !idle() {
			// A controller that re-senses while a train is out must not
			// start another one.
			sense()
		}
		finishTrains()
		mu.Lock()
		most := maxInFlight
		mu.Unlock()
		if most > 1 {
			t.Fatalf("cycle %d: %d trains in flight at the hub, want at most 1", c, most)
		}
	}

	if failures != 2 {
		t.Fatalf("%d trains toward %s failed, want 2", failures, failing)
	}
	if log := logs.String(); strings.Count(log, "active probe failed") != 2 || !strings.Contains(log, "peer="+failing) {
		t.Fatalf("failed trains not logged as such:\n%s", log)
	}
	// Every peer is probed on the first cycle and again on the first cycle
	// its leg is stale and its floor has passed, however many peers wait
	// behind the hub's one train.
	end := p.now()
	for _, peer := range peers {
		k := kicks[peer]
		if len(k) == 0 || !k[0].Equal(start.Add(step)) {
			t.Fatalf("%s first kicked at %v, want the first cycle %v", peer, k, start.Add(step))
		}
		for i, at := range append(k[1:], end) {
			if gap := at.Sub(k[i]); gap > staleAfter+step {
				t.Fatalf("%s kicked at %v: %v without a train, want at most %v",
					peer, k, gap, staleAfter+step)
			}
		}
	}

	// Every leg has been measured: the next cycle answers every pair from
	// the active plane, aged from the older leg's observation.
	clock.Add(int64(step))
	now := p.now()
	at := make(map[string]int64)
	for _, peer := range peers {
		est, ok := p.set.Estimate(peer, now.UnixNano())
		if !ok {
			t.Fatalf("leg %s has no estimate", peer)
		}
		at[peer] = est.At
	}
	snap := sense()
	slack := time.Since(wallStart).Seconds()
	finishTrains()
	if len(snap.Provenance) != len(peers)*(len(peers)-1) {
		t.Fatalf("%d pairs sensed, want %d", len(snap.Provenance), len(peers)*(len(peers)-1))
	}
	for _, prov := range snap.Provenance {
		if prov.Source != "active-probe" || prov.Kind != "active" || prov.Mbps <= 0 {
			t.Fatalf("pair %s>%s = %+v, want an active-probe answer", prov.From, prov.To, prov)
		}
		want := now.Sub(time.Unix(0, min(at[prov.From], at[prov.To]))).Seconds()
		if want < 1 || prov.AgeSec < want-1e-6 || prov.AgeSec > want+slack {
			t.Fatalf("pair %s>%s age_sec = %v, want the older leg's %v (+%v)",
				prov.From, prov.To, prov.AgeSec, want, slack)
		}
	}
}

// TestHubProberQueuesOldestFirst: peers that find the hub's train out go
// next, back to back, in the order of their last kick, never-kicked peers
// first; a queued peer still within its floor is dropped.
func TestHubProberQueuesOldestFirst(t *testing.T) {
	p, err := NewHubProber(nil, wren.NewMonitor("hub", wren.Config{}), coord.NewMemStore(), 5*time.Second,
		slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }
	started, release := make(chan string), make(chan struct{})
	p.probe = func(peer string, _ estimator.Probe) error {
		started <- peer
		<-release
		return nil
	}
	p.lastKick["b"] = now.Add(-10 * time.Second)
	p.lastKick["c"] = now.Add(-20 * time.Second)
	p.lastKick["e"] = now.Add(-time.Second)
	for _, peer := range []string{"a", "b", "e", "c", "d"} {
		p.kick(peer, now)
	}
	var order []string
	for range 4 {
		order = append(order, <-started)
		release <- struct{}{}
	}
	if got := strings.Join(order, ","); got != "a,d,c,b" {
		t.Fatalf("trains went to %s, want a,d,c,b", got)
	}
	// The queue is drained: the next kick gets a train.
	p.kick("f", now)
	if peer := <-started; peer != "f" {
		t.Fatalf("train went to %s after the queue drained, want f", peer)
	}
	release <- struct{}{}
}
