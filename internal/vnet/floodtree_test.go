package vnet_test

import (
	"fmt"
	"testing"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
)

// Flood-tree tests on whole overlays: a VM migration's announce travels
// the star (or the proxy mesh) once, however many cycles the direct
// links add, and leaves every daemon with a location that delivers.

// floodTotals sums flooded frames, TTL expiries and drops over daemons.
func floodTotals(ds []*vnet.Daemon) (flooded, ttl, dropped uint64) {
	for _, d := range ds {
		st := d.Stats()
		flooded += st.FramesFlooded
		ttl += st.TTLExpired
		dropped += st.FramesDropped
	}
	return flooded, ttl, dropped
}

// memLink joins a and b with a synchronous in-memory link pair.
func memLink(a, b *vnet.Daemon) {
	onA, onB := vnet.MemLinkPair(a, b)
	a.InstallLinks([]*vnet.Link{onA})
	b.InstallLinks([]*vnet.Link{onB})
}

// TestFloodTreeStarMigrate: on a 6-host star with direct links that form
// cycles (and the rules an applied plan pins to them), one migration's
// announce costs exactly one frame per host — up to the proxy, then down
// to the other five — with no TTL expiry, and afterwards every host's
// unicast reaches the VM at its new host.
func TestFloodTreeStarMigrate(t *testing.T) {
	proxy := vnet.NewDaemon("proxy")
	defer proxy.Close()
	all := []*vnet.Daemon{proxy}
	hosts := make(map[string]*vnet.Daemon)
	for i := 1; i <= 6; i++ {
		h := vnet.NewDaemon(fmt.Sprintf("h%d", i))
		defer h.Close()
		memLink(h, proxy)
		h.SetDefaultRoute("proxy")
		hosts[h.Name()] = h
		all = append(all, h)
	}
	// Two triangles joined by two more links: every host sits on a cycle.
	for _, p := range [][2]string{{"h1", "h2"}, {"h2", "h3"}, {"h3", "h1"},
		{"h4", "h5"}, {"h5", "h6"}, {"h6", "h4"}, {"h1", "h4"}, {"h3", "h6"}} {
		memLink(hosts[p[0]], hosts[p[1]])
	}

	vms := []*vm.VM{vm.New(1), vm.New(2), vm.New(3), vm.New(4)}
	for i, h := range []string{"h1", "h2", "h4", "h5"} {
		vms[i].AttachTo(hosts[h])
	}
	// The plan's rules pin vm3 (at h4) onto the direct h5-h4 link, so vm4's
	// frames teach h4 that vm4 lives behind h5.
	hosts["h5"].AddRule(vms[2].MAC(), "h4")
	hosts["h5"].InjectFrame(&ethernet.Frame{Dst: vms[2].MAC(), Src: vms[3].MAC(), Type: ethernet.TypeApp})
	if got := hosts["h4"].Learned()[vms[3].MAC()]; got != "h5" {
		t.Fatalf("h4 learned vm4 at %q, want h5", got)
	}

	flood0, _, drop0 := floodTotals(all)
	vms[3].AttachTo(hosts["h6"])
	flood1, ttl, drop1 := floodTotals(all)
	if got := flood1 - flood0; got != uint64(len(hosts)) {
		t.Fatalf("migration flooded %d frames, want %d", got, len(hosts))
	}
	if ttl != 0 || drop1 != drop0 {
		t.Fatalf("ttlExpired=%d dropped=%d, want 0/0", ttl, drop1-drop0)
	}
	for name, h := range hosts {
		if name == "h6" {
			continue
		}
		if got := h.Learned()[vms[3].MAC()]; got != "proxy" {
			t.Errorf("%s learned vm4 at %q, want proxy", name, got)
		}
	}

	for i := 1; i <= 6; i++ {
		hosts[fmt.Sprintf("h%d", i)].InjectFrame(&ethernet.Frame{
			Dst: vms[3].MAC(), Src: ethernet.VMMAC(100 + i), Type: ethernet.TypeApp,
		})
	}
	if got := vms[3].Received(); got != 6 {
		t.Fatalf("migrated VM received %d of 6 unicasts", got)
	}
	if _, ttl, drop2 := floodTotals(all); ttl != 0 || drop2 != drop1 {
		t.Fatalf("unicasts: ttlExpired=%d dropped=%d, want 0/0", ttl, drop2-drop1)
	}
}

// TestFloodTreeDeadDefaultNoLoop: three leaves whose default link (to a
// proxy that is gone) is down, joined in a triangle. A VM broadcast leaves
// its host on both direct links and ends there: leaves never re-flood, so
// the cycle carries no copy around.
func TestFloodTreeDeadDefaultNoLoop(t *testing.T) {
	var leaves []*vnet.Daemon
	for _, name := range []string{"a", "b", "c"} {
		d := vnet.NewDaemon(name)
		defer d.Close()
		d.SetDefaultRoute("proxy")
		leaves = append(leaves, d)
	}
	memLink(leaves[0], leaves[1])
	memLink(leaves[1], leaves[2])
	memLink(leaves[2], leaves[0])
	var got [3]int
	for i, d := range leaves {
		i := i
		d.AttachVM(ethernet.VMMAC(10+i), func(*ethernet.Frame) { got[i]++ })
	}
	leaves[0].InjectFrame(&ethernet.Frame{Dst: ethernet.Broadcast, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp})
	if flooded, ttl, _ := floodTotals(leaves); flooded != 2 || ttl != 0 {
		t.Fatalf("flooded=%d ttlExpired=%d, want 2/0", flooded, ttl)
	}
	if got != [3]int{1, 1, 1} {
		t.Fatalf("VM copies = %v, want one each", got)
	}
}

// TestFloodTreeMeshMigrateSettles: on NewMesh(2, 10) with a chain of
// direct host links, a migration's announce reaches the home proxy, which
// floods it to the other proxy and every other host; the other proxy,
// having it from a ring member, passes it to the hosts only. It settles
// at exactly that count with no TTL expiry, and every host's unicast then
// reaches the VM.
func TestFloodTreeMeshMigrateSettles(t *testing.T) {
	proxies := []string{"pa", "pb"}
	var names []string
	for i := 1; i <= 10; i++ {
		names = append(names, fmt.Sprintf("h%d", i))
	}
	o := newTestMesh(t, proxies, names)
	for i := 1; i < len(names); i++ {
		if err := o.ConnectPair(names[i-1], names[i]); err != nil {
			t.Fatal(err)
		}
	}
	var all []*vnet.Daemon
	for _, p := range o.Proxies {
		all = append(all, p.Daemon)
	}
	for _, n := range o.Nodes {
		all = append(all, n.Daemon)
	}
	// One announce: 1 up, (P-1) + (H-1) from the home proxy, H from each
	// other proxy.
	P, H := uint64(len(proxies)), uint64(len(names))
	perAnnounce := 1 + (P - 1) + (H - 1) + (P-1)*H

	v := vm.New(1)
	settle := func(what string, want uint64) {
		t.Helper()
		waitCond(t, what, func() bool { f, _, _ := floodTotals(all); return f >= want })
		time.Sleep(50 * time.Millisecond)
		if f, ttl, _ := floodTotals(all); f != want || ttl != 0 {
			t.Fatalf("%s: flooded=%d ttlExpired=%d, want %d/0", what, f, ttl, want)
		}
	}
	v.AttachTo(o.Node("h1").Daemon)
	settle("first announce", perAnnounce)
	v.AttachTo(o.Node("h7").Daemon)
	settle("migration announce", 2*perAnnounce)

	_, _, drop0 := floodTotals(all)
	for i, n := range o.Nodes {
		n.Daemon.InjectFrame(&ethernet.Frame{Dst: v.MAC(), Src: ethernet.VMMAC(100 + i), Type: ethernet.TypeApp})
	}
	waitCond(t, "unicast from every host", func() bool { return v.Received() == H })
	if _, ttl, drop := floodTotals(all); ttl != 0 || drop != drop0 {
		t.Fatalf("unicasts: ttlExpired=%d dropped=%d, want 0/0", ttl, drop-drop0)
	}
}
