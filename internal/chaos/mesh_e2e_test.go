package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/obs/collect"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

// Mesh chaos: the scenario runner killing and partitioning proxies of a
// live sharded overlay (vnet.NewMesh), asserting the re-home contract the
// mesh promises — daemons survive the loss of any proxy, registrations
// re-learn at the inheriting successor, and an operator can restore full
// membership afterwards.

func meshWait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func meshVMFrame(dst, src ethernet.MAC) *ethernet.Frame {
	return &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeApp, Payload: make([]byte, 256)}
}

// meshFlight attaches a fresh flight recorder to every mesh member, the
// way a real deployment runs one per daemon, and returns the
// member→recorder map for cross-node trace merging.
func meshFlight(o *vnet.Overlay) map[string]*obs.FlightRecorder {
	recs := make(map[string]*obs.FlightRecorder)
	attach := func(d *vnet.Daemon) {
		fl := obs.NewFlightRecorder(512)
		d.SetFlight(fl)
		recs[d.Name()] = fl
	}
	for _, p := range o.Proxies {
		attach(p.Daemon)
	}
	for _, n := range o.Nodes {
		attach(n.Daemon)
	}
	return recs
}

// dumpMeshTrace merges every member's flight recorder into cross-node
// traces and writes them under CHAOS_TRACE_DIR (no-op when unset): a
// MeshTrace JSON array plus the rendered span trees, named for the test
// and seed. CI uploads the directory when a seed fails, so the fault
// storm can be replayed hop by hop across members, not just per ring.
func dumpMeshTrace(t *testing.T, seed int64, recs map[string]*obs.FlightRecorder) {
	dir := os.Getenv("CHAOS_TRACE_DIR")
	if dir == "" {
		return
	}
	col := collect.New()
	for name, fl := range recs {
		col.AddSource(collect.RecorderSource(name, fl))
	}
	ids := col.TraceIDs()
	if len(ids) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos mesh trace dir: %v", err)
		return
	}
	var traces []*collect.MeshTrace
	var rendered bytes.Buffer
	for _, id := range ids {
		mt := col.Trace(id)
		traces = append(traces, mt)
		mt.Render(&rendered)
	}
	data, err := json.MarshalIndent(traces, "", "  ")
	if err != nil {
		t.Logf("chaos mesh trace marshal: %v", err)
		return
	}
	base := filepath.Base(fmt.Sprintf("%s-seed%d-mesh", t.Name(), seed))
	if err := os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644); err != nil {
		t.Logf("chaos mesh trace write: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".txt"), rendered.Bytes(), 0o644); err != nil {
		t.Logf("chaos mesh trace write: %v", err)
	}
}

// A Crash event on the proxy owning a VM's slice: every daemon must drop
// the victim from its ring, the clockwise successor must inherit the
// registration (re-learn), and delivery must continue — all recorded on
// the flight recorder for seed replay.
func TestChaosMeshProxyCrashRehomesAndRelearns(t *testing.T) {
	seed := chaosSeed(t)
	fr := obs.NewFlightRecorder(512)
	defer dumpTrace(t, fr, seed)

	proxies := []string{"pa", "pb", "pc"}
	hosts := []string{"h1", "h2", "h3"}
	o, err := vnet.NewMesh(proxies, hosts, vttif.Config{}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	recs := meshFlight(o)
	recs["chaos"] = fr // the runner's fault timeline is one more member
	defer dumpMeshTrace(t, seed, recs)

	var delivered atomic.Uint64
	vm1, vm2 := ethernet.VMMAC(1), ethernet.VMMAC(2)
	o.Node("h1").Daemon.AttachVM(vm1, func(*ethernet.Frame) {})
	o.Node("h2").Daemon.AttachVM(vm2, func(*ethernet.Frame) { delivered.Add(1) })

	victim := o.Ring.Owner(vm2)
	meshWait(t, "owner holds vm2's registration", func() bool {
		return o.ProxyNode(victim).Daemon.Registrations()[vm2] == "h2"
	})

	fab := NewOverlayFabric(o)
	fab.RegisterService(victim, Service{Down: func() error {
		o.ProxyNode(victim).Daemon.Close()
		return nil
	}})
	r := &Runner{
		Scenario: Scenario{
			Events: []Event{{At: 0, Fault: Fault{Kind: Crash}, Target: victim}},
		},
		Fabric: fab,
		Log:    &Log{},
		Flight: fr,
	}
	stop := make(chan struct{})
	defer close(stop)
	if err := r.Play(WallClock{}, stop); err != nil {
		t.Fatalf("play: %v", err)
	}

	for _, n := range o.Nodes {
		d := n.Daemon
		meshWait(t, fmt.Sprintf("%s drops the dead proxy from its ring", d.Name()), func() bool {
			ring := d.Ring()
			return ring != nil && !ring.Contains(victim)
		})
		if home := d.DefaultRoute(); home == victim {
			t.Fatalf("%s still defaults to the dead proxy", d.Name())
		}
	}
	successor := o.Node("h1").Daemon.Ring().Owner(vm2)
	if successor == victim {
		t.Fatalf("slice did not move off dead owner %s", victim)
	}
	meshWait(t, "successor inherits vm2's registration", func() bool {
		return o.ProxyNode(successor).Daemon.Registrations()[vm2] == "h2"
	})

	const frames = 20
	for i := 0; i < frames; i++ {
		o.Node("h1").Daemon.InjectFrame(meshVMFrame(vm2, vm1))
	}
	meshWait(t, "delivery after proxy crash", func() bool { return delivered.Load() >= frames })

	// The run left a replayable record: the fault injection on the
	// runner's recorder, and at least one member recorded its ring
	// shrinking — the merged mesh trace CI archives contains both.
	var sawFault, sawShrink bool
	for _, fl := range recs {
		for _, ev := range fl.Events(0) {
			switch ev.Name {
			case "fault-injected":
				sawFault = true
			case "ring-shrink":
				sawShrink = true
			}
		}
	}
	if !sawFault || !sawShrink {
		t.Fatalf("flight recorders missing chaos timeline: fault=%v shrink=%v", sawFault, sawShrink)
	}
}

// A timed partition between a host and its home proxy: the host re-homes
// onto the shrunk ring while the fault holds; after the heal the operator
// restores full membership the way vnetd installs a ring (SetProxyRing and
// SetDefaultRoute on each member) and the host's ring, home, and delivery
// all recover.
func TestChaosMeshPartitionRehomesThenOperatorRestores(t *testing.T) {
	seed := chaosSeed(t)
	fr := obs.NewFlightRecorder(512)
	defer dumpTrace(t, fr, seed)

	o, err := vnet.NewMesh([]string{"pa", "pb", "pc"}, []string{"h1", "h2"}, vttif.Config{}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	recs := meshFlight(o)
	recs["chaos"] = fr
	defer dumpMeshTrace(t, seed, recs)
	h1 := o.Node("h1").Daemon
	home := h1.DefaultRoute()

	fab := NewOverlayFabric(o)
	r := &Runner{
		Scenario: Scenario{
			Events: []Event{{
				At:       0,
				Fault:    Fault{Kind: Partition},
				Target:   "h1<->" + home,
				Duration: 150 * time.Millisecond,
			}},
		},
		Fabric: fab,
		Log:    &Log{},
		Flight: fr,
	}
	rehomed := make(chan struct{})
	go func() {
		defer close(rehomed)
		if err := r.Play(WallClock{}, nil); err != nil {
			t.Errorf("play: %v", err)
		}
	}()
	meshWait(t, "h1 re-homes off its partitioned home", func() bool {
		ring := h1.Ring()
		return ring != nil && !ring.Contains(home) && h1.DefaultRoute() != home
	})
	<-rehomed // partition cleared: the link redials

	meshWait(t, "healed link is back", func() bool {
		_, ok := h1.Link(home)
		return ok
	})
	// Rings only ever shrink on their own; restoring membership is the
	// operator's move: a fresh ring over the full member list on every
	// member, and each host's default route at its home on that ring.
	ring, err := vnet.NewProxyRing(o.Ring.Members(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range o.Proxies {
		p.Daemon.SetProxyRing(ring)
	}
	for _, n := range o.Nodes {
		n.Daemon.SetProxyRing(ring)
		n.Daemon.SetDefaultRoute(ring.HomeProxy(n.Daemon.Name()))
	}
	if ring := h1.Ring(); !ring.Contains(home) {
		t.Fatalf("h1's ring still missing %s after restore", home)
	}
	if got, want := h1.DefaultRoute(), o.Ring.HomeProxy("h1"); got != want {
		t.Fatalf("h1 home %q after restore, want %q", got, want)
	}

	// End to end: a VM owned by the once-partitioned proxy delivers again.
	var delivered atomic.Uint64
	var vm ethernet.MAC
	for i := 10; ; i++ {
		vm = ethernet.VMMAC(i)
		if o.Ring.Owner(vm) == home {
			break
		}
	}
	src := ethernet.VMMAC(5)
	h1.AttachVM(src, func(*ethernet.Frame) {})
	o.Node("h2").Daemon.AttachVM(vm, func(*ethernet.Frame) { delivered.Add(1) })
	meshWait(t, "registration lands at restored owner", func() bool {
		return o.ProxyNode(home).Daemon.Registrations()[vm] == "h2"
	})
	h1.InjectFrame(meshVMFrame(vm, src))
	meshWait(t, "delivery via restored home", func() bool { return delivered.Load() >= 1 })
}

// Migrations on NewMesh(2, 10) whose hosts are also joined by direct links
// (a chain plus seeded chords, so the overlay is full of cycles), with a
// seeded direct link partitioned and healed halfway through. Every VM
// announce must settle at the flood tree's exact frame count with no TTL
// expiry, and afterwards every host's unicast must reach the VM.
func TestChaosMeshMigrateSettles(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	fr := obs.NewFlightRecorder(512)
	defer dumpTrace(t, fr, seed)

	proxies := []string{"pa", "pb"}
	var hosts []string
	for i := 1; i <= 10; i++ {
		hosts = append(hosts, fmt.Sprintf("h%d", i))
	}
	o, err := vnet.NewMesh(proxies, hosts, vttif.Config{}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	recs := meshFlight(o)
	recs["chaos"] = fr
	defer dumpMeshTrace(t, seed, recs)

	var direct []string
	link := func(a, b string) {
		if _, ok := o.Node(a).Daemon.Link(b); ok || a == b {
			return
		}
		if err := o.ConnectPair(a, b); err != nil {
			t.Fatal(err)
		}
		direct = append(direct, a+"<->"+b)
	}
	for i := 1; i < len(hosts); i++ {
		link(hosts[i-1], hosts[i])
	}
	for i := 0; i < 5; i++ {
		link(hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))])
	}

	var all []*vnet.Daemon
	for _, p := range o.Proxies {
		all = append(all, p.Daemon)
	}
	for _, n := range o.Nodes {
		all = append(all, n.Daemon)
	}
	totals := func() (flooded, ttl uint64) {
		for _, d := range all {
			st := d.Stats()
			flooded, ttl = flooded+st.FramesFlooded, ttl+st.TTLExpired
		}
		return flooded, ttl
	}
	// One announce: up to the home proxy, from there to the other proxy
	// and the other hosts, from the other proxy to every host.
	P, H := uint64(len(proxies)), uint64(len(hosts))
	perAnnounce := 1 + (P - 1) + (H - 1) + (P-1)*H

	vms := []*vm.VM{vm.New(1), vm.New(2), vm.New(3)}
	var want uint64
	migrate := func(v *vm.VM, to string) {
		t.Helper()
		v.AttachTo(o.Node(to).Daemon)
		want += perAnnounce
		meshWait(t, fmt.Sprintf("%s's announce from %s", v.MAC(), to), func() bool {
			f, _ := totals()
			return f >= want
		})
		time.Sleep(30 * time.Millisecond) // a storm would still be growing
		if f, ttl := totals(); f != want || ttl != 0 {
			t.Fatalf("%s to %s: flooded=%d ttlExpired=%d, want %d/0 (seed %d)", v.MAC(), to, f, ttl, want, seed)
		}
		rx := v.Received()
		for i, n := range o.Nodes {
			n.Daemon.InjectFrame(meshVMFrame(v.MAC(), ethernet.VMMAC(100+i)))
		}
		meshWait(t, fmt.Sprintf("every host reaches %s at %s", v.MAC(), to), func() bool {
			return v.Received() == rx+H
		})
	}
	for _, v := range vms {
		migrate(v, hosts[rng.Intn(len(hosts))])
	}
	for i := 0; i < 3; i++ {
		migrate(vms[rng.Intn(len(vms))], hosts[rng.Intn(len(hosts))])
	}

	cut := direct[rng.Intn(len(direct))]
	r := &Runner{
		Scenario: Scenario{
			Events: []Event{{At: 0, Fault: Fault{Kind: Partition}, Target: cut, Duration: 50 * time.Millisecond}},
		},
		Fabric: NewOverlayFabric(o),
		Log:    &Log{},
		Flight: fr,
	}
	if err := r.Play(WallClock{}, nil); err != nil {
		t.Fatalf("play: %v", err)
	}
	ends := strings.Split(cut, "<->")
	meshWait(t, "healed direct link", func() bool {
		_, ok := o.Node(ends[0]).Daemon.Link(ends[1])
		return ok
	})
	for i := 0; i < 3; i++ {
		migrate(vms[rng.Intn(len(vms))], hosts[rng.Intn(len(hosts))])
	}
}
