// Package pcap is the reproduction's stand-in for Wren's kernel-level
// packet trace facility (paper section 2: "Wren uses kernel-level packet
// traces"): it records per-packet headers with precise timestamps at a
// host's NIC, cheaply enough to stay out of the data path, which is what
// lets Wren measure without perturbing the application. Records can come
// from the discrete-event simulator's capture hooks (simulated time) or
// from instrumented VNET overlay links (wall-clock time); Wren's analyzer
// consumes both identically.
package pcap
