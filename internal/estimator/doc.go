// Package estimator defines a pluggable available-bandwidth estimator
// interface and an estimator zoo built on it, so the adaptation loop can
// choose — and the eval harness can compare — different answers to the
// same question: "how much bandwidth is free on this path right now?"
//
// Every estimator consumes Observations (one per resolved packet train:
// rate, congestion verdict, per-packet departures and RTTs) and emits an
// Estimate carrying a point value, a [Lo, Hi] bracket with the Bound it
// gives, a Quality in [0, 1], and the time of its newest observation, so
// callers can reason about staleness. The package imports nothing of
// Wren's: the Wren monitor produces these Observations and runs SIC for
// each path itself. Three families are registered:
//
//   - "sic" (passive): the paper's self-induced-congestion estimator,
//     the one the Wren monitor runs — the rate threshold that best
//     separates congested from uncongested trains.
//   - "minplus" (passive): a min-plus system-theoretic estimator in the
//     style of Liebeherr, Fidler & Valaee: each train at rate r yields a
//     queueing-delay slope m(r); under the fluid model m(r) = max(0,
//     (r-A)/C), so regressing slope against rate over the congested
//     trains recovers the available bandwidth A (x-intercept) and
//     capacity C (inverse slope) — the rate-scanning (Legendre) probing
//     scheme applied to passive trains.
//   - "selfload" (active): a self-loading iterative prober in the
//     pathload/IGI family. It implements Prober: it asks the transport
//     for probe trains at chosen rates, binary-searching the [lo, hi]
//     bracket until it converges, then watches the bracket edges and
//     reopens the search when the path changes.
//
// Estimators register themselves by name in an init-time registry (New,
// Names), so the eval harness and the fusion hook treat them uniformly.
// Set manages one estimator instance per remote path; installing its
// Observe as a wren.Monitor's train hook feeds the zoo from live capture.
// The eval harness lives in the eval subpackage;
// docs/ESTIMATORS.md documents theory, tuning, and methodology.
package estimator
