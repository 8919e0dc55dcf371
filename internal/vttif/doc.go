// Package vttif reproduces VTTIF, Virtuoso's virtual topology and traffic
// inference framework (paper section 3.2). Each VNET daemon counts the
// Ethernet traffic its local VMs send (Local); the daemons periodically
// push those local matrices to the Proxy, whose Aggregator maintains a
// global traffic matrix, applies a low-pass filter over the updates, and
// recovers the application topology by normalization and pruning. Reaction
// damping keeps adaptation from oscillating: a topology change is reported
// only after it persists across several updates (the paper's smoothing
// interval and detection threshold).
//
// The Aggregator holds every pair's smoothed rate exactly in one table up
// to a fixed pair cap. The first report that would exceed the cap starts a
// count-min sketch, seeded with the table's mass, and from then on the
// table keeps only the heavy edges (space-saving admission against the
// sketch): hub memory stays bounded under any flow count, and below the
// cap the sketch never exists (sketch.go).
//
// LocalMetrics and AggregatorMetrics (metrics.go) export classification
// and inference counters via internal/obs; uninstrumented instances pay
// nothing.
package vttif
