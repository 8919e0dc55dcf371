package vnet_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/vnet"
)

// The ISSUE 7 scale scenario: a sharded mesh at 10k daemons / 100k VMs
// (scaled to 1k/10k in the PR matrix; set SCALE_FULL=1 for the nightly
// size) built on the synchronous in-memory fabric, asserting the
// tentpole's load-bearing claims end to end:
//
//   - every inter-host frame is delivered and transits exactly one proxy
//     (sum of proxy relay counters == frames sent);
//   - no proxy relays more than 2/N of the inter-shard traffic, and no
//     proxy holds more than 2/N of the registrations (route
//     summarization: per-MAC state lives only at owners);
//   - killing a proxy re-homes every daemon deterministically and traffic
//     keeps flowing with the same exactly-one-transit accounting.

type scaleDims struct {
	proxies, hosts, vms, frames int
	seed                        int64
}

func scaleDimensions(t *testing.T) scaleDims {
	t.Helper()
	d := scaleDims{proxies: 10, hosts: 1000, vms: 10000, frames: 20000, seed: 42}
	if os.Getenv("SCALE_FULL") != "" {
		d.hosts, d.vms, d.frames = 10000, 100000, 50000
	}
	if s := os.Getenv("SCALE_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SCALE_SEED %q: %v", s, err)
		}
		d.seed = n
	}
	t.Logf("scale: proxies=%d hosts=%d vms=%d frames=%d seed=%d", d.proxies, d.hosts, d.vms, d.frames, d.seed)
	return d
}

// scaleFabric is the assembled mesh: bare daemons on the synchronous
// in-memory transport, every host linked to every proxy, proxies linked
// pairwise, one ring everywhere.
type scaleFabric struct {
	dims      scaleDims
	proxies   []*vnet.Daemon
	hosts     []*vnet.Daemon
	ring      *vnet.ProxyRing
	macs      []ethernet.MAC // vm id -> MAC
	vmHost    []int          // vm id -> host index
	delivered uint64         // single-goroutine: the fabric is synchronous
}

func buildScaleFabric(t *testing.T, dims scaleDims) *scaleFabric {
	t.Helper()
	f := &scaleFabric{dims: dims}
	proxyNames := make([]string, dims.proxies)
	for i := range proxyNames {
		proxyNames[i] = fmt.Sprintf("proxy%02d", i)
	}
	ring, err := vnet.NewProxyRing(proxyNames, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.ring = ring
	for _, name := range proxyNames {
		f.proxies = append(f.proxies, vnet.NewDaemon(name))
	}
	for i := 0; i < dims.hosts; i++ {
		f.hosts = append(f.hosts, vnet.NewDaemon(fmt.Sprintf("host%05d", i)))
	}
	t.Cleanup(func() {
		for _, d := range f.proxies {
			d.Close()
		}
		for _, d := range f.hosts {
			d.Close()
		}
	})

	// Wire: proxies pairwise, every host to every proxy; each daemon's
	// links land in one bulk snapshot swap.
	perProxy := make([][]*vnet.Link, dims.proxies)
	for i := range f.proxies {
		for j := i + 1; j < dims.proxies; j++ {
			li, lj := vnet.MemLinkPair(f.proxies[i], f.proxies[j])
			perProxy[i] = append(perProxy[i], li)
			perProxy[j] = append(perProxy[j], lj)
		}
	}
	for _, h := range f.hosts {
		mine := make([]*vnet.Link, 0, dims.proxies)
		for pi, p := range f.proxies {
			lh, lp := vnet.MemLinkPair(h, p)
			mine = append(mine, lh)
			perProxy[pi] = append(perProxy[pi], lp)
		}
		h.InstallLinks(mine)
	}
	for pi, p := range f.proxies {
		p.InstallLinks(perProxy[pi])
	}
	for _, p := range f.proxies {
		p.SetProxyRing(ring)
		p.EnableRingRehome(nil)
	}
	for _, h := range f.hosts {
		h.SetProxyRing(ring)
		h.SetDefaultRoute(ring.HomeProxy(h.Name()))
		h.EnableRingRehome(nil)
	}

	// VMs round-robin across hosts; attachment registers each MAC with its
	// owning shard through the real announce path.
	f.macs = make([]ethernet.MAC, dims.vms)
	f.vmHost = make([]int, dims.vms)
	for v := 0; v < dims.vms; v++ {
		f.macs[v] = ethernet.VMMAC(v)
		f.vmHost[v] = v % dims.hosts
		f.hosts[f.vmHost[v]].AttachVM(f.macs[v], func(*ethernet.Frame) { f.delivered++ })
	}
	return f
}

// inject sends n seeded random inter-host frames and returns how many
// were sent (same-host pairs are re-rolled, so n is exact).
func (f *scaleFabric) inject(rng *rand.Rand, n int) int {
	sent := 0
	for sent < n {
		src, dst := rng.Intn(f.dims.vms), rng.Intn(f.dims.vms)
		if f.vmHost[src] == f.vmHost[dst] {
			continue
		}
		f.hosts[f.vmHost[src]].InjectFrame(appFrame(f.macs[dst], f.macs[src], 200))
		sent++
	}
	return sent
}

func (f *scaleFabric) proxyForwarded() (per []uint64, sum uint64) {
	per = make([]uint64, len(f.proxies))
	for i, p := range f.proxies {
		per[i] = p.Stats().FramesForwarded
		sum += per[i]
	}
	return per, sum
}

func TestScaleShardedMeshBoundsTransitAndRehomes(t *testing.T) {
	if testing.Short() {
		t.Skip("scale scenario skipped in -short")
	}
	dims := scaleDimensions(t)
	f := buildScaleFabric(t, dims)
	bound := 2.0 / float64(dims.proxies)

	// Route summarization at scale: every VM registered with exactly one
	// proxy, and no proxy holds more than 2/N of the per-MAC state.
	totalRegs := 0
	for _, p := range f.proxies {
		n := len(p.Registrations())
		totalRegs += n
		if frac := float64(n) / float64(dims.vms); frac > bound {
			t.Errorf("proxy %s holds %.4f of all registrations > 2/N=%.4f", p.Name(), frac, bound)
		}
	}
	if totalRegs != dims.vms {
		t.Fatalf("registrations across shards = %d, want exactly %d (one owner per VM)", totalRegs, dims.vms)
	}

	rng := rand.New(rand.NewSource(dims.seed))
	sent := f.inject(rng, dims.frames)
	if int(f.delivered) != sent {
		t.Fatalf("delivered %d of %d frames", f.delivered, sent)
	}
	per, sum := f.proxyForwarded()
	if sum != uint64(sent) {
		t.Fatalf("proxies relayed %d frames for %d sent — every inter-host frame must transit exactly one proxy", sum, sent)
	}
	for i, p := range f.proxies {
		if frac := float64(per[i]) / float64(sent); frac > bound {
			t.Errorf("proxy %s relayed %.4f of inter-shard traffic > 2/N=%.4f", p.Name(), frac, bound)
		}
	}
	for _, d := range append(append([]*vnet.Daemon(nil), f.proxies...), f.hosts...) {
		st := d.Stats()
		if st.FramesDropped != 0 || st.TTLExpired != 0 {
			t.Fatalf("%s: dropped=%d ttlExpired=%d, want 0/0", d.Name(), st.FramesDropped, st.TTLExpired)
		}
	}

	// Kill the busiest proxy. The synchronous fabric has no read loops to
	// observe the death, so every survivor is told explicitly — the
	// deterministic analogue of the link-down callbacks the chaos suite
	// exercises over real sockets.
	deadIdx := 0
	for i := range per {
		if per[i] > per[deadIdx] {
			deadIdx = i
		}
	}
	dead := f.proxies[deadIdx]
	deadName := dead.Name()
	deadForwarded := per[deadIdx]
	dead.Close()
	for i, p := range f.proxies {
		if i != deadIdx {
			p.Disconnect(deadName)
		}
	}
	for _, h := range f.hosts {
		h.Disconnect(deadName)
	}
	shrunk := f.ring.Without(deadName)
	for _, h := range f.hosts {
		r := h.Ring()
		if r == nil || r.Version() != shrunk.Version() {
			t.Fatalf("%s ring did not shrink to the surviving membership", h.Name())
		}
		if home := h.DefaultRoute(); home == deadName || !r.Contains(home) {
			t.Fatalf("%s default route %q not a surviving ring member", h.Name(), home)
		}
	}

	// Traffic keeps flowing, with the same exactly-one-transit accounting,
	// and the dead proxy relays nothing more.
	sent2 := f.inject(rng, dims.frames/10)
	if int(f.delivered) != sent+sent2 {
		t.Fatalf("delivered %d of %d frames after proxy loss", int(f.delivered)-sent, sent2)
	}
	per2, sum2 := f.proxyForwarded()
	if per2[deadIdx] != deadForwarded {
		t.Fatalf("dead proxy %s relayed %d frames after its death", deadName, per2[deadIdx]-deadForwarded)
	}
	if sum2-sum != uint64(sent2) {
		t.Fatalf("survivors relayed %d frames for %d sent after re-home", sum2-sum, sent2)
	}
}
