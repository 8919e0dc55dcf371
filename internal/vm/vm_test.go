package vm

import (
	"testing"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

// starT builds a small star overlay with n host daemons and one VM per
// daemon, already attached and announced.
func starT(t *testing.T, n int) (*vnet.Overlay, []*VM) {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = "h" + string(rune('1'+i))
	}
	o, err := vnet.NewStar(names, vttif.Config{Alpha: 1, HoldUpdates: 1}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	vms := make([]*VM, n)
	for i := range vms {
		vms[i] = New(i + 1)
		vms[i].AttachTo(o.Nodes[i].Daemon)
	}
	// Let announcements propagate so daemons learn VM locations.
	time.Sleep(20 * time.Millisecond)
	return o, vms
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestSendAcrossOverlay(t *testing.T) {
	_, vms := starT(t, 2)
	if err := vms[0].Send(vms[1], 100); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return vms[1].Received() == 1 })
	if vms[0].Received() != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestSendFragmentsToMTU(t *testing.T) {
	_, vms := starT(t, 2)
	size := 4*ethernet.MaxPayload + 10
	if err := vms[0].Send(vms[1], size); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all fragments", func() bool { return vms[1].Received() == 5 })
	want := uint64(size + 5*ethernet.HeaderLen)
	waitFor(t, "bytes", func() bool { return vms[1].RxBytes() == want })
}

func TestSendDetachedFails(t *testing.T) {
	v := New(1)
	if err := v.Send(New(2), 10); err == nil {
		t.Fatal("detached send should error")
	}
}

func TestMigrationMovesDelivery(t *testing.T) {
	o, vms := starT(t, 3)
	// Migrate VM 2 from h2 to h3; its MAC is unchanged, the announcement
	// re-teaches the overlay.
	vms[1].AttachTo(o.Nodes[2].Daemon)
	time.Sleep(20 * time.Millisecond)
	if vms[1].Daemon() != o.Nodes[2].Daemon {
		t.Fatal("Daemon() not updated")
	}
	before := vms[1].Received()
	if err := vms[0].Send(vms[1], 100); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-migration delivery", func() bool { return vms[1].Received() == before+1 })
	// The old host's daemon no longer delivers to the VM locally.
	if got := o.Nodes[1].Daemon.Stats().FramesDelivered; got != 0 {
		t.Fatalf("old daemon delivered %d frames after migration", got)
	}
}

func TestOnFrameHook(t *testing.T) {
	_, vms := starT(t, 2)
	got := make(chan *ethernet.Frame, 1)
	vms[1].OnFrame = func(f *ethernet.Frame) {
		select {
		case got <- f:
		default:
		}
	}
	vms[0].Send(vms[1], 42)
	select {
	case f := <-got:
		if f.Src != vms[0].MAC() || len(f.Payload) != 42 {
			t.Fatalf("frame = %v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnFrame never fired")
	}
}

func TestBSPNeighborsPattern(t *testing.T) {
	_, vms := starT(t, 4)
	p := StartBSPNeighbors(vms, 3000, 10*time.Millisecond)
	waitFor(t, "bsp steps", func() bool { return p.Steps.Load() >= 3 })
	p.Stop()
	// Every VM hears from both ring neighbors: at least 2 frames each per
	// step (3000 B = 2 frames to each neighbor).
	for i, v := range vms {
		if v.Received() < 4 {
			t.Fatalf("vm%d received %d frames", i, v.Received())
		}
	}
}

func TestNASMultiGridPatternShape(t *testing.T) {
	// The intensity matrix itself must be asymmetric all-to-all with zero
	// diagonal — the Figure 7 shape.
	m := NASMultiGridIntensity
	for i := 0; i < 4; i++ {
		if m[i][i] != 0 {
			t.Fatalf("diagonal [%d][%d] nonzero", i, i)
		}
		for j := 0; j < 4; j++ {
			if i != j && m[i][j] <= 0 {
				t.Fatalf("entry [%d][%d] = %v, want positive (all-to-all)", i, j, m[i][j])
			}
		}
	}
	_, vms := starT(t, 4)
	p := StartNASMultiGrid(vms, 10000, 10*time.Millisecond)
	waitFor(t, "steps", func() bool { return p.Steps.Load() >= 2 })
	p.Stop()
	for i, v := range vms {
		if v.RxBytes() == 0 {
			t.Fatalf("vm%d received nothing", i)
		}
	}
}

func TestNASMultiGridRequires4(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong VM count")
		}
	}()
	StartNASMultiGrid([]*VM{New(1)}, 100, time.Millisecond)
}
