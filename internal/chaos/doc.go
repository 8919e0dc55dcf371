// Package chaos is a deterministic fault-injection layer for the overlay
// and the adaptation loop: seeded, scriptable faults — per-link loss,
// reordering, duplication, added latency/jitter, bandwidth clamps, full
// partitions, Wren feed starvation, repository outages, and daemon
// crash/restart — driven by a scenario DSL so every run is replayable
// from a single seed.
//
// The paper's premise is that Wren measures and VADAPT adapts using
// naturally occurring traffic on real, lossy, congested networks. The
// chaos layer is how we reproduce those networks on demand: a Scenario is
// a timed script of Events, each naming a Fault and a Target; a Runner
// plays it against a Fabric. Two fabrics exist:
//
//   - SimFabric injects into a simnet.Network. Everything — the traffic,
//     the loss stream, the fault timing — runs on the single simulator
//     goroutine from seeded randomness, so two runs of the same scenario
//     produce byte-for-byte identical logs. This is the substrate for
//     reproducible estimator-under-fault tests.
//
//   - OverlayFabric injects into a live vnet.Overlay (real goroutines,
//     real TCP on localhost): link partitions, Wren feed starvation, and
//     bandwidth clamps. Runs are not bit-reproducible — assertions there
//     are invariants (rollback on partial apply, reconnect with capped
//     backoff, the feed ring never blocking the data plane).
//
// FakeClock is the harness's deterministic time source: Runner.Play (and
// any component that waits through a PlayClock) can be driven step by step
// instead of sleeping wall time.
//
// Fault applications and clearances are recorded three ways: in the
// Runner's deterministic Log (the replay artifact), as flight-recorder
// events (component "chaos", visible in /debug/events), and in Metrics
// (chaos_faults_injected_total and friends).
package chaos
