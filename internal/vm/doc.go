// Package vm provides simulated virtual machines for the VNET overlay: an
// in-process stand-in for the paper's VMware VMs (section 3, Virtuoso). A
// VM owns a MAC address, attaches to a VNET daemon through a virtual NIC
// (the daemon sees only Ethernet frames, exactly as it would from a real
// VMM), and runs a traffic-pattern program — the unmodified applications
// of the paper (BSP neighbor exchange, NAS MultiGrid)
// whose traffic both VTTIF and Wren observe for free.
package vm
