package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"freemeasure/internal/control"
	"freemeasure/internal/ethernet"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vsched"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

// Config parameterizes a System.
type Config struct {
	// Hosts names the machines that run VNET daemons (plus an implicit Proxy).
	Hosts []string
	// ReportEvery is the daemons' reporting period to the Proxy (default 250 ms).
	ReportEvery time.Duration
	// VTTIF tunes the daemons' and the Proxy's traffic inference.
	VTTIF vttif.Config
}

// withDefaults fills what core consumes; control defaults the rest.
func (c Config) withDefaults() Config {
	if c.ReportEvery == 0 {
		c.ReportEvery = 250 * time.Millisecond
	}
	return c
}

// overlayWren is every daemon's Wren configuration. Wall-clock overlay
// traffic is sparser and noisier than simulated kernel traces: merge
// sub-millisecond write jitter into bursts and close trains after 20 ms of
// idleness.
var overlayWren = wren.Config{Scan: wren.ScanConfig{BurstGap: 1_000_000, MaxGap: 20_000_000}}

// System is a running deployment: a star overlay, the VMs attached to it,
// per-host CPU schedulers, and the one control.Controller that adapts them.
type System struct {
	overlay *vnet.Overlay
	ctl     *control.Controller
	sched   map[string]*vsched.Scheduler // by host

	mu  sync.Mutex
	vms map[ethernet.MAC]*vm.VM
}

// NewSystem builds and starts the deployment: a star overlay on localhost
// with periodic VTTIF/Wren reporting. Nothing adapts until a cycle is run.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("core: no hosts")
	}
	o, err := vnet.NewStar(cfg.Hosts, cfg.VTTIF, overlayWren)
	if err != nil {
		return nil, err
	}
	s := &System{overlay: o, vms: make(map[ethernet.MAC]*vm.VM), sched: make(map[string]*vsched.Scheduler)}
	for _, h := range cfg.Hosts {
		s.sched[h] = vsched.New(1) // the whole CPU is admissible
	}
	s.ctl, err = control.New(control.Config{
		Source: &control.ViewSource{
			View:  o.View,
			Hosts: func() []string { return cfg.Hosts },
			VMs:   s.vmInfos,
		},
		Applier: control.OverlayApplier{Overlay: o, Migrator: s},
	})
	if err != nil {
		o.Close()
		return nil, err
	}
	o.StartReporting(cfg.ReportEvery)
	return s, nil
}

// Controller returns the system's adaptation loop: RunCycle executes one
// sense -> decide -> apply pass and reports it as a control.CycleResult;
// Tick and Start run it damped by the hold-down.
func (s *System) Controller() *control.Controller { return s.ctl }

// Overlay exposes the underlying overlay (for rate limiting, inspection).
func (s *System) Overlay() *vnet.Overlay { return s.overlay }

// Close shuts everything down.
func (s *System) Close() { s.overlay.Close() }

// HostScheduler returns the named host's CPU reservation scheduler.
func (s *System) HostScheduler(host string) (*vsched.Scheduler, bool) {
	sc, ok := s.sched[host]
	return sc, ok
}

// Reserve attaches a VSched CPU reservation to a VM: admitted on its
// current host now, re-admitted at the target of every future migration.
func (s *System) Reserve(id int, r vsched.Reservation) error {
	v, ok := s.VM(id)
	if !ok {
		return fmt.Errorf("core: unknown vm %d", id)
	}
	return s.sched[v.Daemon().Name()].Admit(id, r)
}

// Migrate implements vnet.Migrator: it moves the VM with the given MAC and
// its CPU reservation — admitted at the target first, so a host without
// CPU headroom refuses the move (configuration element 4), then revoked at
// the source. Endpoints swapped, it undoes itself: Overlay.Apply's rollback.
func (s *System) Migrate(mac ethernet.MAC, from, to string) error {
	target := s.overlay.Node(to)
	if target == nil {
		return fmt.Errorf("core: unknown host %q", to)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vms[mac]
	if !ok {
		return fmt.Errorf("core: no vm with MAC %s", mac)
	}
	if v.Daemon().Name() != from {
		return fmt.Errorf("core: vm %d is not on %s", v.ID(), from)
	}
	if r, reserved := s.sched[from].Reservation(v.ID()); reserved {
		if err := s.sched[to].Admit(v.ID(), r); err != nil {
			return fmt.Errorf("core: migrating vm %d to %s: %w", v.ID(), to, err)
		}
		s.sched[from].Revoke(v.ID())
	}
	v.AttachTo(target.Daemon)
	return nil
}

// AddVM creates VM id on the named host.
func (s *System) AddVM(id int, host string) (*vm.VM, error) {
	node := s.overlay.Node(host)
	if node == nil {
		return nil, fmt.Errorf("core: unknown host %q", host)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := vm.New(id)
	if _, dup := s.vms[v.MAC()]; dup {
		return nil, fmt.Errorf("core: vm %d exists", id)
	}
	v.AttachTo(node.Daemon)
	s.vms[v.MAC()] = v
	return v, nil
}

// VM returns the VM with the given id, if any.
func (s *System) VM(id int) (*vm.VM, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.vms[ethernet.VMMAC(id)]
	return v, ok
}

// VMs returns all VMs sorted by id.
func (s *System) VMs() []*vm.VM {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*vm.VM, 0, len(s.vms))
	for _, v := range s.vms {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// vmInfos is the controller's view of the registry, in id order.
func (s *System) vmInfos() []control.VMInfo {
	vms := s.VMs()
	out := make([]control.VMInfo, len(vms))
	for i, v := range vms {
		out[i] = control.VMInfo{MAC: v.MAC(), Host: v.Daemon().Name()}
	}
	return out
}
