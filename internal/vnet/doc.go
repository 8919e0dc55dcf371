// Package vnet reproduces VNET, Virtuoso's layer-2 overlay network (paper
// section 3.1): one daemon per host, each VM attached to its daemon through
// a virtual interface, daemons connected by TCP links in a star around a
// Proxy plus any extra links VADAPT configures, and a forwarding table
// mapping destination MACs to links or local interfaces.
//
// Links carry length-prefixed messages over real TCP sockets (or the
// virtual-UDP transport in udp.go). TCP link I/O is batched on the
// receive side only: every message leaves in one write, the reader pulls
// the stream in 16 KiB reads, and each read that brought in frames is
// acknowledged on arrival — before the frames are handled — with one
// cumulative byte count (datagram links acknowledge per frame). Together
// with wall-clock
// timestamps on sends and ACK arrivals, this gives Wren the same
// (departure, cumulative-ack) stream its kernel extension extracted from
// TCP itself — the substitution documented in DESIGN.md, and the concrete
// realization of the paper's claim that VNET traffic is itself the
// measurement source.
//
// Metrics (metrics.go) exports the forwarding plane's counters — frames
// from VMs, delivered, forwarded, flooded, dropped, per-link send counts,
// link lifecycle — via internal/obs; an uninstrumented daemon pays
// nothing.
package vnet
