package vnet

import (
	"encoding/json"
	"sync"
	"time"

	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// Reporter periodically pushes one daemon's VTTIF local matrix and Wren
// measurements over the control channel to a peer (normally the Proxy).
// Overlay.StartReporting uses the same push path for in-process nodes;
// Reporter exists so a standalone vnetd process can feed the Proxy's
// GlobalView too.
type Reporter struct {
	daemon   *Reporting
	interval time.Duration
	stopCh   chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// Reporting bundles what a report cycle needs: the daemon whose traffic
// matrix to snapshot, the Wren monitor to poll, and the control peer to
// push to. An empty Peer follows the daemon's current default route at
// every push — on a proxy ring that is the home proxy, so reports chase
// a re-home instead of dead-lettering at a crashed hub.
type Reporting struct {
	Daemon *Daemon
	Wren   *wren.Monitor
	Peer   string
}

// peer resolves the push target for one cycle.
func (r *Reporting) peer() string {
	if r.Peer != "" {
		return r.Peer
	}
	return r.Daemon.DefaultRoute()
}

// NewReporter builds a stopped reporter; call Start to begin pushing.
func NewReporter(r Reporting, interval time.Duration) *Reporter {
	return &Reporter{daemon: &r, interval: interval, stopCh: make(chan struct{})}
}

// Start launches the periodic report loop.
func (r *Reporter) Start() {
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		ticker := time.NewTicker(r.interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stopCh:
				return
			case <-ticker.C:
				r.ReportOnce()
			}
		}
	}()
}

// ReportOnce polls Wren and pushes one round of reports immediately.
// Exported so tests and callers with their own scheduling can drive the
// cycle deterministically.
func (r *Reporter) ReportOnce() {
	if r.daemon.Wren != nil {
		r.daemon.Wren.Poll()
	}
	pushReports(r.daemon, r.interval.Seconds())
}

// Stop halts the loop and waits for it to exit.
func (r *Reporter) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.done.Wait()
}

// pushReports sends the daemon's VTTIF local matrix and its Wren
// measurements to the control peer as two controlMsg pushes.
func pushReports(rep *Reporting, intervalSec float64) {
	peer := rep.peer()
	if peer == "" {
		return
	}
	// VTTIF local matrix.
	local := rep.Daemon.Traffic().Snapshot()
	if len(local) > 0 {
		msg := controlMsg{Kind: "vttif", IntervalSec: intervalSec}
		for p, b := range local {
			msg.Pairs = append(msg.Pairs, pairBytes{Src: macToHex(p.Src), Dst: macToHex(p.Dst), Bytes: b})
		}
		if raw, err := json.Marshal(msg); err == nil {
			rep.Daemon.SendControl(peer, raw)
		}
	}
	// Wren measurements toward every measured remote.
	if rep.Wren == nil {
		return
	}
	scan := rep.Wren.Scan()
	if len(scan) == 0 {
		return
	}
	msg := controlMsg{Kind: "wren", Wren: make([]coord.Record, len(scan))}
	for i, po := range scan {
		msg.Wren[i] = po.Record()
	}
	if raw, err := json.Marshal(msg); err == nil {
		rep.Daemon.SendControl(peer, raw)
	}
}
