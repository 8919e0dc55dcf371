package chaos

import (
	"fmt"
	"time"
)

// Kind names one fault type. Which kinds a fabric supports depends on the
// substrate; Inject returns an error for unsupported ones.
type Kind string

const (
	// Loss drops each packet on the target link independently with
	// probability Rate.
	Loss Kind = "loss"
	// Reorder delays a Rate-fraction of packets by Jitter, so they arrive
	// behind packets sent after them.
	Reorder Kind = "reorder"
	// Duplicate enqueues a second copy of each packet with probability
	// Rate.
	Duplicate Kind = "duplicate"
	// Delay adds Extra latency to every packet, plus up to Jitter of
	// seeded random variation.
	Delay Kind = "delay"
	// Clamp caps the target link's rate at Mbps for the duration.
	Clamp Kind = "clamp"
	// Partition drops everything on the target link (or between the
	// target pair of overlay daemons).
	Partition Kind = "partition"
	// StarveFeed detaches the target daemon's Wren feed: the data plane
	// keeps forwarding but the monitor sees nothing until the fault
	// clears.
	StarveFeed Kind = "starve-feed"
	// Outage makes the target service (trace repository, SOAP endpoint)
	// unavailable: connections are refused until the fault clears.
	Outage Kind = "outage"
	// Crash closes the target daemon's listener and links mid-flight; on
	// clear it is brought back on the same address.
	Crash Kind = "crash"
)

// Fault is one injectable condition. Only the fields the Kind reads are
// meaningful; the rest stay zero.
type Fault struct {
	Kind Kind
	// Rate is a probability in [0,1) for Loss/Reorder/Duplicate.
	Rate float64
	// Mbps is the bandwidth cap for Clamp.
	Mbps float64
	// Extra is the added base latency for Delay.
	Extra time.Duration
	// Jitter bounds the per-packet random extra delay for Delay/Reorder.
	Jitter time.Duration
}

func (f Fault) String() string {
	switch f.Kind {
	case Loss, Reorder, Duplicate:
		return fmt.Sprintf("%s(%.3f)", f.Kind, f.Rate)
	case Clamp:
		return fmt.Sprintf("clamp(%.1fMbps)", f.Mbps)
	case Delay:
		return fmt.Sprintf("delay(%s+%s)", f.Extra, f.Jitter)
	default:
		return string(f.Kind)
	}
}

// Event is one scenario entry: at time At (relative to scenario start),
// apply Fault to Target; clear it Duration later (0 = never, the fault
// holds until the run ends).
type Event struct {
	At       time.Duration
	Fault    Fault
	Target   string
	Duration time.Duration
}

// Scenario is a fault script. On a deterministic fabric (a SimFabric with
// a fixed seed) the same script replays identically.
type Scenario struct {
	Events []Event
}

// Validate rejects scripts no fabric could play: unknown kinds,
// probabilities outside [0,1), negative times, non-positive clamps.
func (s *Scenario) Validate() error {
	for i, ev := range s.Events {
		if ev.At < 0 || ev.Duration < 0 {
			return fmt.Errorf("chaos: event %d: negative time", i)
		}
		if ev.Target == "" {
			return fmt.Errorf("chaos: event %d: empty target", i)
		}
		f := ev.Fault
		switch f.Kind {
		case Loss, Reorder, Duplicate:
			if f.Rate < 0 || f.Rate >= 1 {
				return fmt.Errorf("chaos: event %d: rate %v outside [0,1)", i, f.Rate)
			}
		case Clamp:
			if f.Mbps <= 0 {
				return fmt.Errorf("chaos: event %d: clamp needs positive Mbps", i)
			}
		case Delay:
			if f.Extra <= 0 && f.Jitter <= 0 {
				return fmt.Errorf("chaos: event %d: delay needs Extra or Jitter", i)
			}
		case Partition, StarveFeed, Outage, Crash:
			// No parameters.
		default:
			return fmt.Errorf("chaos: event %d: unknown fault kind %q", i, f.Kind)
		}
	}
	return nil
}
