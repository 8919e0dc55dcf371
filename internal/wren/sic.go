package wren

import (
	"sort"

	"freemeasure/internal/estimator"
	"freemeasure/internal/pcap"
)

// AnalyzeStatus classifies the outcome of analyzing one train.
type AnalyzeStatus int

const (
	// AnalyzeOK: the train produced an observation.
	AnalyzeOK AnalyzeStatus = iota
	// AnalyzeWaiting: some packets have no matching ACK yet; retry after
	// more ACKs arrive.
	AnalyzeWaiting
	// AnalyzeDiscard: the train is unusable (retransmissions, RTO-inflated
	// samples with no corroborating loss signal).
	AnalyzeDiscard
	// AnalyzeAmbiguous: the RTT trend was neither clearly increasing nor
	// clearly flat. The returned Observation carries valid rate and RTT
	// fields, Ambiguous set and no congestion verdict; SIC ignores such
	// trains, while estimators with their own trend analysis may still
	// use them.
	AnalyzeAmbiguous
)

// The SIC test's thresholds. The two trend metrics are the pairwise
// comparison test (PCT: fraction of successive RTT increases) and the
// pairwise difference test (PDT: net RTT change normalized by total
// variation), the standard self-induced-congestion statistics.
const (
	pctCongested = 0.66 // PCT >= declares increasing (pathload's increasing-trend threshold)
	pctClear     = 0.54 // PCT <= declares flat (pathload's no-trend threshold)
	pdtCongested = 0.50 // PDT >= declares increasing
	pdtClear     = 0.30 // PDT <= declares flat
	// maxRTTInflate discards trains whose max/min RTT exceeds it.
	maxRTTInflate = 20
	// MinMatchedFrac is the fraction of a train's packets that must have
	// an RTT sample before the train is judged.
	MinMatchedFrac = 0.9
)

// MatchRTTs computes per-packet round-trip times for a train against the
// flow's time-ordered cumulative ACK stream. A data packet's RTT is the
// delay until the first ACK that (a) covers its last payload byte and (b)
// arrives after its departure. Packets with no covering ACK yet yield -1.
func MatchRTTs(train *Train, acks []pcap.Record) (rtts []int64, unmatched int) {
	rtts = make([]int64, len(train.Packets))
	for i, p := range train.Packets {
		rtts[i] = -1
		target := p.Seq + int64(p.Len)
		// Cumulative ACK values are nondecreasing over time, so binary
		// search on Ack finds the earliest covering ACK.
		idx := sort.Search(len(acks), func(j int) bool { return acks[j].Ack >= target })
		for idx < len(acks) && acks[idx].At <= p.At {
			idx++
		}
		if idx == len(acks) {
			unmatched++
			continue
		}
		rtts[i] = acks[idx].At - p.At
	}
	return rtts, unmatched
}

// MaxDupAckRun returns the longest run of duplicate cumulative ACKs whose
// arrival falls in [from, to]. Three or more duplicates signal packet loss
// — the congestion signature of a saturated droptail queue, where delay
// stops growing and SIC's RTT-trend test alone would go blind.
func MaxDupAckRun(acks []pcap.Record, from, to int64) int {
	i := sort.Search(len(acks), func(j int) bool { return acks[j].At >= from })
	run, maxRun := 0, 0
	var prev int64 = -1
	for ; i < len(acks) && acks[i].At <= to; i++ {
		if acks[i].Ack == prev {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
			prev = acks[i].Ack
		}
	}
	return maxRun + 1
}

// trend computes the two SIC trend metrics over the RTT series (entries
// < 0 are skipped): PCT, the fraction of successive increases, and PDT,
// (last-first) / total variation.
func trend(rtts []int64) (pct, pdt float64) {
	var inc, cmp int
	var first, last, prev int64 = -1, -1, -1
	var variation float64
	for _, r := range rtts {
		if r < 0 {
			continue
		}
		if first < 0 {
			first = r
		}
		if prev >= 0 {
			cmp++
			if r > prev {
				inc++
			}
			d := float64(r - prev)
			if d < 0 {
				d = -d
			}
			variation += d
		}
		prev = r
		last = r
	}
	if cmp > 0 {
		pct = float64(inc) / float64(cmp)
	}
	if variation > 0 {
		pdt = float64(last-first) / variation
	}
	return pct, pdt
}

// Verdict applies the SIC trend test to a train's RTT series (entries < 0
// are skipped): congested when the trend clearly rises, clear when it is
// clearly flat, ambiguous otherwise.
func Verdict(rtts []int64) (congested, ambiguous bool) {
	pct, pdt := trend(rtts)
	switch {
	case pct >= pctCongested || pdt >= pdtCongested:
		return true, false
	case pct <= pctClear && pdt <= pdtClear:
		return false, false
	}
	return false, true
}

// AnalyzeTrain runs the full SIC analysis of one train. acks must be the
// flow's ACK records in arrival order. The Observation carries no
// per-packet detail.
func AnalyzeTrain(train *Train, acks []pcap.Record) (estimator.Observation, AnalyzeStatus) {
	// Retransmissions reorder the sequence space and poison both the ISR
	// and the RTT matching; skip such trains outright.
	for i := 1; i < len(train.Packets); i++ {
		if train.Packets[i].Seq < train.Packets[i-1].Seq+int64(train.Packets[i-1].Len) {
			return estimator.Observation{}, AnalyzeDiscard
		}
	}
	rtts, unmatched := MatchRTTs(train, acks)
	matchedFrac := 1 - float64(unmatched)/float64(len(train.Packets))
	if matchedFrac < MinMatchedFrac {
		return estimator.Observation{}, AnalyzeWaiting
	}
	var minRTT, maxRTT int64 = -1, -1
	lastAck := train.End
	for i, r := range rtts {
		if r < 0 {
			continue
		}
		if minRTT < 0 || r < minRTT {
			minRTT = r
		}
		if r > maxRTT {
			maxRTT = r
		}
		if at := train.Packets[i].At + r; at > lastAck {
			lastAck = at
		}
	}
	// A train whose packets all left at one instant has no rate to judge.
	isr := train.ISRMbps()
	if minRTT <= 0 || isr <= 0 {
		return estimator.Observation{}, AnalyzeDiscard
	}
	obs := estimator.Observation{
		At:       train.End,
		RateMbps: isr,
		TrainLen: train.Len(),
		MinRTT:   minRTT,
	}
	// Packet loss while the train's ACKs returned (three or more duplicate
	// cumulative ACKs) means the path could not absorb the train's rate:
	// on a saturated droptail queue delay stops rising and drops take
	// over, so loss must count as congestion alongside the RTT trend.
	loss := MaxDupAckRun(acks, train.Start, lastAck) >= 3
	switch {
	case loss:
		obs.Congested = true
	case float64(maxRTT) > maxRTTInflate*float64(minRTT):
		// An RTO or loss recovery inflated a sample by an order of
		// magnitude and no loss signal gives the verdict: the trend is
		// meaningless.
		return estimator.Observation{}, AnalyzeDiscard
	default:
		obs.Congested, obs.Ambiguous = Verdict(rtts)
		if obs.Ambiguous {
			// Neither clearly increasing nor clearly flat: hand the filled
			// observation back anyway — the rate, length, and MinRTT are
			// sound.
			return obs, AnalyzeAmbiguous
		}
	}
	return obs, AnalyzeOK
}
