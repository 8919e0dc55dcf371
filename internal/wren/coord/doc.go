// Package coord is the measurement coordination tier above the Wren
// repository: the Iris/FlashFlow direction of the paper's passive
// measurement service. Where internal/wren ingests and analyzes traces,
// coord stores the resulting records durably and publishes a consumable
// artifact.
//
// Two pieces compose the tier:
//
//   - Store: the freshest observation record of each path behind a
//     backend interface — Put, versioned Scan snapshots, and Watch
//     subscriptions. MemStore keeps one record per path under one lock;
//     FileStore adds an append-only persistent log with crash-tolerant
//     replay, compacted on open. Both pass the shared StoreConformance
//     suite.
//
//   - BandwidthMap: the versioned, atomically published capacity file
//     (the v3bw idea) that control.ViewSource, VADAPT and external
//     consumers read — built from a Store snapshot, stamped with a
//     monotonic generation by a Publisher, served at /map on wrenrepod
//     and printed by `wrenctl map`.
package coord
