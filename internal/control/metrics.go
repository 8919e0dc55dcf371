package control

import (
	"freemeasure/internal/obs"
)

// Metrics holds the control-loop instruments. A nil *Metrics (and the
// zero value) is the uninstrumented state; both are safe to use.
type Metrics struct {
	Cycles                  *obs.Counter   // control_cycles_total
	CyclesHeld              *obs.Counter   // control_cycles_held_total
	CycleErrors             *obs.Counter   // control_cycle_errors_total
	PlansApplied            *obs.Counter   // control_plans_applied_total
	PlansSkipped            *obs.Counter   // control_plans_skipped_total
	PlansRolledBack         *obs.Counter   // control_plans_rolledback_total
	PlansRollbackIncomplete *obs.Counter   // control_plans_rollback_incomplete_total
	Objective               *obs.Gauge     // control_objective
	SenseSeconds            *obs.Histogram // control_phase_seconds{phase="sense"}
	DecideSeconds           *obs.Histogram // control_phase_seconds{phase="decide"}
	ApplySeconds            *obs.Histogram // control_phase_seconds{phase="apply"}
	CycleSeconds            *obs.Histogram // control_cycle_seconds
	// Adaptation latency split by how the decide phase solved: a warm
	// start from the installed configuration versus a full GH+SA re-solve.
	AdaptWarmSeconds *obs.Histogram // control_adapt_seconds{mode="warm"}
	AdaptFullSeconds *obs.Histogram // control_adapt_seconds{mode="full"}
}

// NewMetrics registers the control-loop metrics on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	phase := func(name string) *obs.Histogram {
		return reg.Histogram("control_phase_seconds",
			"Latency of each control-loop phase.",
			obs.DefLatencyBuckets, "phase", name)
	}
	adapt := func(mode string) *obs.Histogram {
		return reg.Histogram("control_adapt_seconds",
			"Decide-phase adaptation latency by solve mode (warm start vs full re-solve); buckets carry exemplar trace IDs.",
			obs.DefLatencyBuckets, "mode", mode)
	}
	return &Metrics{
		Cycles: reg.Counter("control_cycles_total",
			"Control cycles started (sense attempts)."),
		CyclesHeld: reg.Counter("control_cycles_held_total",
			"Loop ticks that ran no cycle because a plan was applied less than 2 × the controller interval before."),
		CycleErrors: reg.Counter("control_cycle_errors_total",
			"Control cycles that failed to sense or apply."),
		PlansApplied: reg.Counter("control_plans_applied_total",
			"Reconfiguration plans applied to the overlay."),
		PlansSkipped: reg.Counter("control_plans_skipped_total",
			"Cycles that produced no applied plan (empty diff, gate, or no demands)."),
		PlansRolledBack: reg.Counter("control_plans_rolledback_total",
			"Plans whose partial application was rolled back after a step failed."),
		PlansRollbackIncomplete: reg.Counter("control_plans_rollback_incomplete_total",
			"Failed plans whose rollback left a step rollback-failed (an undo errored, so its change may still be installed)."),
		Objective: reg.Gauge("control_objective",
			"Objective score of the configuration the controller believes is installed."),
		SenseSeconds:  phase("sense"),
		DecideSeconds: phase("decide"),
		ApplySeconds:  phase("apply"),
		CycleSeconds: reg.Histogram("control_cycle_seconds",
			"End-to-end latency of one whole control cycle (sense through apply); buckets carry exemplar trace IDs linking to the cycle's flight-recorder events.",
			obs.DefLatencyBuckets),
		AdaptWarmSeconds: adapt("warm"),
		AdaptFullSeconds: adapt("full"),
	}
}
