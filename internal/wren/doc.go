// Package wren reproduces the Wren passive network measurement system
// (paper section 2, "Wren"): it turns kernel-level packet traces of an
// application's own TCP traffic into available-bandwidth and latency
// estimates, with no probe traffic at all — the paper's "free" measurement.
//
// The pipeline is the paper's (sections 2 and 2.1):
//
//  1. Group outgoing data packets into trains — maximal runs of packets
//     with consistent inter-departure spacing (the online improvement over
//     the earlier fixed-size bursts). See ScanTrains in trains.go.
//  2. Compute each train's initial sending rate (ISR).
//  3. Match the returning cumulative ACKs to the train's packets and
//     recover per-packet round-trip times (MatchRTTs in sic.go).
//  4. Apply the self-induced congestion (SIC) test: an increasing RTT
//     trend across the train means the train's rate exceeded the path's
//     available bandwidth (queues were building). See AnalyzeTrain.
//  5. Aggregate many (ISR, congested?) observations into an estimate: the
//     rate that best separates congested from uncongested trains. That
//     split is estimator.SIC; the monitor keeps one per path, and its
//     train hook hands the same estimator.Observations to any other
//     estimator.
//
// Monitor is the online analysis engine (the paper's user-level daemon):
// feed it capture records, poll it periodically, query it per remote.
// Repository/Forwarder implement the paper's second deployment mode, where
// filtered traces ship to a central analysis host. Service exposes either
// over the SOAP interface of section 2.2.
//
// MonitorMetrics (metrics.go) exports the pipeline's internal counters —
// records fed, trains formed, SIC verdicts, estimates published, poll
// latency — through internal/obs; the zero value costs nothing.
package wren
