package wren

import (
	"math"
	"testing"

	"freemeasure/internal/pcap"
)

// mkAcks builds the cumulative ACK stream matching outs, each ack arriving
// rtt(i) after the corresponding departure.
func mkAcks(outs []pcap.Record, rtt func(i int) int64) []pcap.Record {
	acks := make([]pcap.Record, len(outs))
	for i, o := range outs {
		acks[i] = pcap.Record{
			At:    o.At + rtt(i),
			Dir:   pcap.In,
			Flow:  o.Flow,
			Size:  40,
			IsAck: true,
			Ack:   o.Seq + int64(o.Len),
		}
	}
	return acks
}

func mustTrain(t *testing.T, outs []pcap.Record) Train {
	t.Helper()
	trains, _ := ScanTrains(outs, farFuture, ScanConfig{})
	if len(trains) != 1 {
		t.Fatalf("expected 1 train, got %d", len(trains))
	}
	return trains[0]
}

func TestMatchRTTsExact(t *testing.T) {
	outs := mkOuts(0, 10, 100*us, 1500, 0)
	acks := mkAcks(outs, func(i int) int64 { return 1000 * us })
	tr := mustTrain(t, outs)
	rtts, unmatched := MatchRTTs(&tr, acks)
	if unmatched != 0 {
		t.Fatalf("unmatched = %d", unmatched)
	}
	for i, r := range rtts {
		if r != 1000*us {
			t.Fatalf("rtt[%d] = %d", i, r)
		}
	}
}

func TestMatchRTTsCumulativeAckCoversSeveral(t *testing.T) {
	outs := mkOuts(0, 6, 100*us, 1500, 0)
	// One cumulative ACK at the end covers everything.
	acks := []pcap.Record{{
		At: outs[5].At + 500*us, IsAck: true, Dir: pcap.In,
		Ack: outs[5].Seq + int64(outs[5].Len),
	}}
	tr := mustTrain(t, outs)
	rtts, unmatched := MatchRTTs(&tr, acks)
	if unmatched != 0 {
		t.Fatalf("unmatched = %d", unmatched)
	}
	// The single ack gives each packet rtt = ackAt - departure, strictly
	// decreasing across the train.
	for i := 1; i < len(rtts); i++ {
		if rtts[i] >= rtts[i-1] {
			t.Fatalf("rtts not decreasing: %v", rtts)
		}
	}
}

func TestMatchRTTsMissingAcks(t *testing.T) {
	outs := mkOuts(0, 5, 100*us, 1500, 0)
	acks := mkAcks(outs[:2], func(i int) int64 { return 500 * us })
	tr := mustTrain(t, outs)
	_, unmatched := MatchRTTs(&tr, acks)
	if unmatched != 3 {
		t.Fatalf("unmatched = %d, want 3", unmatched)
	}
}

func TestTrendIncreasing(t *testing.T) {
	rtts := []int64{100, 110, 120, 130, 140, 150}
	pct, pdt := trend(rtts)
	if pct != 1 || pdt != 1 {
		t.Fatalf("trend = %v, %v, want PCT=1 PDT=1", pct, pdt)
	}
}

func TestTrendFlatNoisy(t *testing.T) {
	rtts := []int64{100, 102, 99, 101, 100, 98, 101, 100}
	pct, pdt := trend(rtts)
	if pct > 0.55 {
		t.Fatalf("PCT = %v for flat noise", pct)
	}
	if math.Abs(pdt) > 0.3 {
		t.Fatalf("PDT = %v for flat noise", pdt)
	}
}

func TestTrendSkipsUnmatched(t *testing.T) {
	rtts := []int64{100, -1, 120, -1, 140}
	pct, pdt := trend(rtts)
	if pct != 1 || pdt != 1 {
		t.Fatalf("trend with gaps = %v, %v", pct, pdt)
	}
}

func TestTrendDegenerate(t *testing.T) {
	if pct, pdt := trend(nil); pct != 0 || pdt != 0 {
		t.Fatalf("empty trend = %v, %v", pct, pdt)
	}
	if pct, pdt := trend([]int64{100}); pct != 0 || pdt != 0 {
		t.Fatalf("singleton trend = %v, %v", pct, pdt)
	}
	// Constant series: no variation, PDT must not divide by zero.
	if _, pdt := trend([]int64{5, 5, 5}); pdt != 0 {
		t.Fatalf("constant trend PDT = %v", pdt)
	}
}

func TestAnalyzeTrainCongested(t *testing.T) {
	outs := mkOuts(0, 10, 100*us, 1500, 0)
	acks := mkAcks(outs, func(i int) int64 { return 1000*us + int64(i)*80*us })
	tr := mustTrain(t, outs)
	obs, status := AnalyzeTrain(&tr, acks)
	if status != AnalyzeOK {
		t.Fatalf("status = %v", status)
	}
	if !obs.Congested {
		t.Fatal("rising RTTs not flagged congested")
	}
	if obs.TrainLen != 10 || obs.MinRTT != 1000*us {
		t.Fatalf("obs = %+v", obs)
	}
}

func TestAnalyzeTrainUncongested(t *testing.T) {
	outs := mkOuts(0, 10, 100*us, 1500, 0)
	jitter := []int64{3, 2, 3, 1, 2, 0, 1, -1, 0, -2}
	acks := mkAcks(outs, func(i int) int64 { return 1000*us + jitter[i]*us })
	tr := mustTrain(t, outs)
	obs, status := AnalyzeTrain(&tr, acks)
	if status != AnalyzeOK {
		t.Fatalf("status = %v", status)
	}
	if obs.Congested {
		t.Fatal("flat RTTs flagged congested")
	}
}

func TestAnalyzeTrainWaitsForAcks(t *testing.T) {
	outs := mkOuts(0, 10, 100*us, 1500, 0)
	acks := mkAcks(outs[:5], func(i int) int64 { return 1000 * us })
	tr := mustTrain(t, outs)
	_, status := AnalyzeTrain(&tr, acks)
	if status != AnalyzeWaiting {
		t.Fatalf("status = %v, want AnalyzeWaiting", status)
	}
}

func TestAnalyzeTrainDiscardsRetransmission(t *testing.T) {
	outs := mkOuts(0, 10, 100*us, 1500, 0)
	outs[5].Seq = outs[2].Seq // a retransmitted segment inside the train
	acks := mkAcks(outs, func(i int) int64 { return 1000 * us })
	trains, _ := ScanTrains(outs, farFuture, ScanConfig{})
	if len(trains) != 1 {
		t.Fatalf("trains = %d", len(trains))
	}
	_, status := AnalyzeTrain(&trains[0], acks)
	if status != AnalyzeDiscard {
		t.Fatalf("status = %v, want AnalyzeDiscard", status)
	}
}

func TestAnalyzeTrainDiscardsRTOInflation(t *testing.T) {
	outs := mkOuts(0, 10, 100*us, 1500, 0)
	acks := mkAcks(outs, func(i int) int64 {
		if i == 7 {
			return 300_000 * us // a 300 ms outlier: an RTO, not congestion
		}
		return 1000 * us
	})
	tr := mustTrain(t, outs)
	_, status := AnalyzeTrain(&tr, acks)
	if status != AnalyzeDiscard {
		t.Fatalf("status = %v, want AnalyzeDiscard", status)
	}
}

// TestAnalyzeTrainDiscardsZeroSpan: a burst stamped with one timestamp
// (a coarse capture clock) has no sending rate; it must not reach the SIC
// window as a 0 Mbit/s verdict.
func TestAnalyzeTrainDiscardsZeroSpan(t *testing.T) {
	outs := mkOuts(0, 10, 0, 1500, 0)
	acks := mkAcks(outs, func(i int) int64 { return 1000*us + int64(i)*80*us })
	tr := mustTrain(t, outs)
	if _, status := AnalyzeTrain(&tr, acks); status != AnalyzeDiscard {
		t.Fatalf("status = %v, want AnalyzeDiscard", status)
	}
}

func TestAnalyzeTrainAmbiguousKeepsObservation(t *testing.T) {
	outs := mkOuts(0, 10, 100*us, 1500, 0)
	// Alternating with a mild net rise: PCT ~ 0.56 (between the clear-flat
	// 0.45 and congested 0.60 thresholds) and PDT ~ 0.2 -> ambiguous.
	rtts := []int64{1000, 1100, 1000, 1100, 1000, 1100, 1050, 1000, 1100, 1150}
	acks := mkAcks(outs, func(i int) int64 { return rtts[i] * us })
	tr := mustTrain(t, outs)
	obs, status := AnalyzeTrain(&tr, acks)
	if status != AnalyzeAmbiguous || !obs.Ambiguous {
		t.Fatalf("status = %v ambiguous = %v, want AnalyzeAmbiguous", status, obs.Ambiguous)
	}
	// No verdict, but the measurement fields must still be filled so
	// downstream estimators with their own trend analysis can use them.
	if obs.TrainLen != 10 || obs.RateMbps <= 0 || obs.MinRTT != 1000*us {
		t.Fatalf("ambiguous obs = %+v, want filled fields", obs)
	}
}

func TestAnalyzeStatusValues(t *testing.T) {
	vals := []AnalyzeStatus{AnalyzeOK, AnalyzeWaiting, AnalyzeDiscard, AnalyzeAmbiguous}
	for i, a := range vals {
		for _, b := range vals[i+1:] {
			if a == b {
				t.Fatal("status values collide")
			}
		}
	}
}
