package control

import (
	"log/slog"
	"math"
	"sync"
	"time"

	"freemeasure/internal/estimator"
	"freemeasure/internal/vnet"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// HubProber is a hub daemon's Fusion.Kick: it stores, as a record of kind
// "active", the bottleneck of the hub's star legs to both endpoints — the
// composition ViewSource uses for hub-legs estimates — in the hub view's
// store, where every later read finds it. Each leg is a self-loading
// estimator fed by vnet.Daemon.Probe trains that the hub's own Wren
// monitor observes.
//
// Probing is asynchronous and budgeted. Every train leaves the hub over
// its one uplink, and a self-loading train reads another sharing it as
// cross traffic, so one train is in flight at the hub and stale peers
// queue behind it, the one kicked longest ago first; each peer is kicked
// at most once per staleAfter. The control loop never blocks on a train.
type HubProber struct {
	set    *estimator.Set
	store  *coord.MemStore
	logger *slog.Logger
	// staleAfter is how old a leg estimate may be before a new train is
	// kicked, and also the floor between two kicks at the same peer.
	staleAfter time.Duration
	// now and probe are the clock and the train transport (time.Now and
	// Daemon.Probe outside tests).
	now   func() time.Time
	probe func(peer string, p estimator.Probe) error

	mu       sync.Mutex
	inFlight bool            // the hub's one train is out
	pending  map[string]bool // stale peers waiting for the train to return
	lastKick map[string]time.Time
}

// NewHubProber wires a prober to the hub daemon d, its monitor's train
// feed and the store of the hub's view.
func NewHubProber(d *vnet.Daemon, mon *wren.Monitor, store *coord.MemStore, staleAfter time.Duration, logger *slog.Logger) (*HubProber, error) {
	set, err := estimator.NewSet("selfload", estimator.Config{MaxAge: staleAfter.Nanoseconds()})
	if err != nil {
		return nil, err
	}
	mon.SetTrainHook(set.Observe)
	return &HubProber{
		set: set, store: store, logger: logger, staleAfter: staleAfter,
		now: time.Now,
		probe: func(peer string, pr estimator.Probe) error {
			return d.Probe(peer, pr.RateMbps, pr.Packets, pr.SizeBytes)
		},
		pending:  make(map[string]bool),
		lastKick: make(map[string]time.Time),
	}, nil
}

// Kick probes the legs to from and to that are missing or stale and,
// once both have an estimate, Puts min(leg(from), leg(to)) for the pair,
// observed when the older leg was.
func (p *HubProber) Kick(from, to string) {
	now := p.now()
	a, okA := p.leg(from, now)
	b, okB := p.leg(to, now)
	if !okA || !okB {
		return
	}
	p.store.Put(coord.Record{
		Path: coord.Path{From: from, To: to},
		At:   min(a.At, b.At),
		Mbps: math.Min(a.Mbps, b.Mbps),
		Kind: "active",
	})
}

// leg returns the current estimate for the hub->peer leg, kicking off a
// probe train when the estimate is missing or stale.
func (p *HubProber) leg(peer string, now time.Time) (estimator.Estimate, bool) {
	est, ok := p.set.Estimate(peer, now.UnixNano())
	if !ok || est.Stale(now.UnixNano(), p.staleAfter.Nanoseconds()) {
		p.kick(peer, now)
	}
	return est, ok && est.Mbps > 0
}

// kick queues peer for a probe train and, unless the hub's one train is
// already out, starts sending.
func (p *HubProber) kick(peer string, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pending[peer] = true
	if p.inFlight {
		return
	}
	if next, ok := p.next(now); ok {
		p.inFlight = true
		go p.run(next, now)
	}
}

// run sends trains one after another, each ending when probe returns,
// until no queued peer is due; then it frees the hub for the next kick.
func (p *HubProber) run(peer string, now time.Time) {
	for more := true; more; {
		if pr, ok := p.set.NextProbe(peer, now.UnixNano()); ok {
			if err := p.probe(peer, pr); err != nil {
				p.logger.Warn("active probe failed", "peer", peer, "err", err)
			}
		}
		p.mu.Lock()
		now = p.now()
		peer, more = p.next(now)
		p.inFlight = more
		p.mu.Unlock()
	}
}

// next dequeues the queued peer kicked longest ago (never-kicked peers
// first, ties by name), dropping those kicked within staleAfter, and
// stamps its kick. p.mu must be held.
func (p *HubProber) next(now time.Time) (string, bool) {
	pick, oldest := "", now
	for peer := range p.pending {
		last, kicked := p.lastKick[peer]
		switch {
		case kicked && now.Sub(last) < p.staleAfter:
			delete(p.pending, peer)
		case pick == "" || last.Before(oldest) || last.Equal(oldest) && peer < pick:
			pick, oldest = peer, last
		}
	}
	if pick != "" {
		delete(p.pending, pick)
		p.lastKick[pick] = now
	}
	return pick, pick != ""
}
