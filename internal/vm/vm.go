package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/vnet"
)

// VM is one simulated virtual machine.
type VM struct {
	id     int
	mac    ethernet.MAC
	daemon atomic.Pointer[vnet.Daemon]

	mu       sync.Mutex
	received uint64
	rxBytes  uint64
	// OnFrame, if set, observes every delivered frame.
	OnFrame func(f *ethernet.Frame)
}

// New creates VM number id with its deterministic MAC.
func New(id int) *VM {
	return &VM{id: id, mac: ethernet.VMMAC(id)}
}

// MAC returns the VM's hardware address.
func (v *VM) MAC() ethernet.MAC { return v.mac }

// AttachTo plugs the VM's virtual NIC into a daemon, detaching from any
// previous one. This is also the mechanism of VM migration: detach here,
// attach there, MAC unchanged — the network illusion VNET maintains. The
// VM announces itself with a broadcast (the gratuitous-ARP analogue) so
// every daemon learns its new location. The announce travels the flood
// tree: up the new host's default link to its proxy, which relays it out
// of every other link (another ring member passes it to its hosts only).
// Direct host links carry none of it, so each host learns the VM behind
// its proxy, at one frame per daemon on the star.
func (v *VM) AttachTo(d *vnet.Daemon) {
	if old := v.daemon.Load(); old != nil {
		old.DetachVM(v.mac)
	}
	v.daemon.Store(d)
	d.AttachVM(v.mac, v.deliver)
	v.Announce()
}

// Announce floods a broadcast so daemons (re)learn where this VM lives.
func (v *VM) Announce() {
	if d := v.daemon.Load(); d != nil {
		d.InjectFrame(&ethernet.Frame{
			Dst:  ethernet.Broadcast,
			Src:  v.mac,
			Type: ethernet.TypeControl,
		})
	}
}

// Daemon returns the currently attached daemon (nil if detached).
func (v *VM) Daemon() *vnet.Daemon { return v.daemon.Load() }

func (v *VM) deliver(f *ethernet.Frame) {
	if f.Type == ethernet.TypeControl {
		return // announcements and control floods are not application data
	}
	v.mu.Lock()
	v.received++
	v.rxBytes += uint64(f.WireLen())
	fn := v.OnFrame
	v.mu.Unlock()
	if fn != nil {
		fn(f)
	}
}

// Received returns how many frames the VM has received.
func (v *VM) Received() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.received
}

// RxBytes returns total received wire bytes.
func (v *VM) RxBytes() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rxBytes
}

// Send emits `size` payload bytes to dst as one or more MTU-bounded
// frames. It reports an error only if the VM is detached.
func (v *VM) Send(dst *VM, size int) error {
	d := v.daemon.Load()
	if d == nil {
		return fmt.Errorf("vm%d: not attached", v.id)
	}
	for size > 0 {
		n := size
		if n > ethernet.MaxPayload {
			n = ethernet.MaxPayload
		}
		d.InjectFrame(&ethernet.Frame{
			Dst:     dst.mac,
			Src:     v.mac,
			Type:    ethernet.TypeApp,
			Payload: make([]byte, n),
		})
		size -= n
	}
	return nil
}
