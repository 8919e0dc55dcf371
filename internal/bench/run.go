package bench

import "fmt"

// Run executes one workload untraced and returns its end-to-end metrics.
// seconds sizes the run: the relay workloads measure for that long in
// fixed windows; the stateful workloads run the fixed op count that takes
// about that long on the reference box.
func Run(workload string, seed int64, seconds int) (*Result, error) {
	switch workload {
	case RelaySmall, BulkDuplex:
		return runRelay(workload, seed, relaySizesFor(seconds), relayRounds)
	case AdaptShift:
		return runAdapt(seed, adaptSizesFor(seconds), adaptRounds)
	case MeasureFeed:
		tr := genFeedTrace(seed) // before any reported clock starts
		return runFeed(seed, tr, feedSizesFor(seconds, tr), feedRounds)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", workload)
	}
}
