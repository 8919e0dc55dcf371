// Package core assembles the complete system the paper describes: a
// Virtuoso deployment where VNET carries the VMs' traffic, Wren passively
// measures the physical paths from that same traffic, VTTIF infers the
// application's topology and load, and VADAPT uses both views to pick a
// better configuration — VM-to-host mapping, overlay topology, forwarding
// rules — which is applied by migrating VMs and editing forwarding tables.
//
// In paper terms: sections 2 (Wren), 3 (Virtuoso: VNET + VTTIF) and 4
// (VADAPT) integrated into the closed loop of section 1. System is the
// top-level object and owns no adaptation logic: System.Controller() is a
// control.Controller whose RunCycle executes one turn of that loop through
// the transactional vnet.Overlay.Apply, with System as the vnet.Migrator
// that moves VMs and their CPU reservations. The controller's Tick is one
// step of the damped loop (no cycle within 2 × its Interval of an applied
// plan), and Start runs Tick on a ticker.
package core
