package control

import (
	"bytes"
	"cmp"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/topology"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vnet"
)

// Applier executes a translated reconfiguration plan against the system.
type Applier interface {
	Apply(plan vnet.Plan) (vnet.ApplyResult, error)
}

// OverlayApplier applies plans to a live in-process overlay. Migrator may
// be nil when plans never migrate VMs.
type OverlayApplier struct {
	Overlay  *vnet.Overlay
	Migrator vnet.Migrator
}

// Apply implements Applier.
func (a OverlayApplier) Apply(plan vnet.Plan) (vnet.ApplyResult, error) {
	return a.Overlay.Apply(plan, a.Migrator)
}

// LogApplier dry-runs plans: each step is logged, nothing is changed, and
// every step counts as applied. It is the act layer for observe-only
// deployments (standalone daemons the controller cannot reconfigure).
type LogApplier struct {
	// Logger receives one line per dry-run step; nil stays silent.
	Logger *slog.Logger
}

// Apply implements Applier.
func (a LogApplier) Apply(plan vnet.Plan) (vnet.ApplyResult, error) {
	res := vnet.ApplyResult{
		Applied: len(plan.Steps),
		Steps:   make([]vnet.StepResult, len(plan.Steps)),
	}
	for i, s := range plan.Steps {
		res.Steps[i] = vnet.StepResult{Step: s, Desc: s.String(), Outcome: vnet.StepApplied}
		if a.Logger != nil {
			a.Logger.Info("dry-run step", "step", s.String())
		}
	}
	return res, nil
}

// Config parameterizes a Controller.
type Config struct {
	Source  ProblemSource
	Applier Applier
	// Objective scores configurations (default vadapt.ResidualBW{}).
	Objective vadapt.Objective
	// SA refines the greedy configuration when SA.Iterations > 0.
	SA vadapt.SAConfig
	// Warm tunes the incremental warm-start policy: on a small traffic
	// delta the decide phase repairs the installed configuration instead of
	// re-solving from scratch. The zero value means defaults.
	Warm vadapt.WarmConfig
	// Solver is optional instrumentation for the incremental solver's
	// GH/SA search (vadapt.NewMetrics); nil disables it.
	Solver *vadapt.Metrics
	// Gate is the cost/benefit hysteresis; the zero value means defaults
	// (10% relative and 1.0 absolute improvement required).
	Gate vadapt.Gate
	// Interval is the period of Start's loop (default 1s). A plan applied
	// by Tick holds the loop down for 2 × Interval.
	Interval time.Duration
	// Metrics is optional; nil disables instrumentation.
	Metrics *Metrics
	// Logger is optional structured cycle logging; nil disables it. Lines
	// carry the obs.KeyCycle / obs.KeyTrace attributes, so they join with
	// the flight recorder's events.
	Logger *slog.Logger
	// Flight is the optional decision flight recorder. Every cycle emits
	// sense, decide and apply spans (plus a gate event) onto it, all
	// correlated by a fresh trace ID, so /debug/events can replay why any
	// particular adaptation happened. Nil disables recording for free.
	Flight *obs.FlightRecorder
	// TraceSink, when set, receives each cycle's root trace context as the
	// cycle starts. It is the seam for long-lived reporters that are not
	// invoked by the cycle itself — e.g. a wren.Forwarder whose batches
	// should carry the trace of the cycle consuming them (SetTrace).
	TraceSink func(obs.TraceContext)
}

func (c Config) withDefaults() Config {
	if c.Objective == nil {
		c.Objective = vadapt.ResidualBW{}
	}
	if c.Gate == (vadapt.Gate{}) {
		c.Gate = vadapt.Gate{}.WithDefaults()
	}
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = &Metrics{} // zero-value collectors are no-ops
	}
	return c
}

// CycleResult reports what one control cycle did.
type CycleResult struct {
	Snapshot *Snapshot
	// Cycle and Trace identify this pass in log lines and flight-recorder
	// events (Trace correlates the cycle's sense/decide/apply spans).
	Cycle uint64
	Trace string
	// Plan is the translated overlay plan (empty when nothing to do).
	Plan vnet.Plan
	// Current and Target score the synthesized current configuration and
	// the proposed one on the same sensed problem.
	Current, Target vadapt.Evaluation
	// GateAllowed is the hysteresis verdict for a non-empty diff (false
	// when the cycle never reached the gate).
	GateAllowed bool
	// Applied is true when the plan was handed to the Applier and
	// succeeded; otherwise Reason says why not.
	Applied bool
	Reason  string
	Result  vnet.ApplyResult
	Err     error
}

// ruleSite identifies one forwarding-table entry: the daemon it lives on
// and the destination MAC it matches.
type ruleSite struct {
	Host string
	MAC  ethernet.MAC
}

// Controller runs the sense->decide->apply loop. It remembers what it
// installed — desired paths per VM pair, forwarding rules, created links —
// so the next cycle can synthesize the current configuration, diff against
// it, and tear down state that no longer serves any demand.
type Controller struct {
	cfg    Config
	cycles atomic.Uint64
	// inc is the stateful incremental solver: it warm-starts from the
	// synthesized current configuration on small deltas and falls back to a
	// full GH+SA re-solve on regime changes. Only runCycle touches it.
	inc *vadapt.Incremental
	// lastRates remembers the previous cycle's sensed demand rates keyed by
	// MAC pair — stable across VM renumbering — so demandDelta can size the
	// traffic delta without trusting demand indices. Only runCycle touches
	// it; nil until the first cycle with demands.
	lastRates map[[2]ethernet.MAC]float64

	mu             sync.Mutex
	lastPaths      map[[2]ethernet.MAC][]string // desired path (daemon names) per demand pair
	installedRules map[ruleSite]string          // rule -> next hop
	installedLinks map[[2]string]bool           // normalized name pairs

	lastMu sync.Mutex
	last   *CycleResult

	// tickMu makes each Tick one step — hold-down check, cycle, and the
	// record of when it applied — so racing ticks cannot both apply.
	tickMu      sync.Mutex
	lastApplied time.Time // guarded by tickMu

	stopCh   chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// New builds a controller. Source and Applier are required.
func New(cfg Config) (*Controller, error) {
	if cfg.Source == nil || cfg.Applier == nil {
		return nil, fmt.Errorf("control: Source and Applier are required")
	}
	cfg = cfg.withDefaults()
	return &Controller{
		cfg: cfg,
		inc: &vadapt.Incremental{
			Objective: cfg.Objective,
			SA:        cfg.SA,
			Warm:      cfg.Warm,
			Metrics:   cfg.Solver,
		},
		lastPaths:      make(map[[2]ethernet.MAC][]string),
		installedRules: make(map[ruleSite]string),
		installedLinks: make(map[[2]string]bool),
		stopCh:         make(chan struct{}),
	}, nil
}

// Start launches the periodic loop, one Tick per Interval; Stop halts it.
func (c *Controller) Start() {
	ticker := time.NewTicker(c.cfg.Interval) // here, so the period counts from Start
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		defer ticker.Stop()
		for {
			select {
			case <-c.stopCh:
				return
			case now := <-ticker.C:
				c.Tick(now)
			}
		}
	}()
}

// Tick is one step of the damped loop: it runs a cycle unless a plan was
// applied less than 2 × Interval before now. That hold-down lets the
// effect of one move be observed before the next is made, the damping the
// paper asks for beside the gate ("adaptation decisions ... cannot lead to
// oscillation"). Only an applied plan starts a hold-down; a skipped, gated
// or failed cycle leaves the next tick free. A now earlier than the last
// applied plan counts as held. ran is false for a held tick, which
// control_cycles_held_total counts.
func (c *Controller) Tick(now time.Time) (res CycleResult, ran bool) {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()
	if !c.lastApplied.IsZero() && now.Sub(c.lastApplied) < 2*c.cfg.Interval {
		c.cfg.Metrics.CyclesHeld.Inc()
		return res, false
	}
	res = c.RunCycle()
	if res.Applied {
		c.lastApplied = now
	}
	return res, true
}

// Stop halts the loop and waits for the in-flight cycle to finish.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.done.Wait()
}

// logCycle writes one structured line per noteworthy cycle: errors and
// applied plans at their natural levels, skips at Debug so steady state
// stays quiet.
func (c *Controller) logCycle(res CycleResult) {
	log := c.cfg.Logger
	if log == nil {
		return
	}
	log = log.With(obs.KeyCycle, res.Cycle, obs.KeyTrace, res.Trace)
	switch {
	case res.Err != nil:
		log.Error("control cycle failed", "err", res.Err,
			"rolled_back", res.Result.RolledBack)
	case res.Applied:
		log.Info("plan applied",
			"applied", res.Result.Applied, "skipped", res.Result.Skipped,
			"current_score", res.Current.Score, "target_score", res.Target.Score)
	default:
		log.Debug("cycle skipped", "reason", res.Reason,
			"current_score", res.Current.Score)
	}
}

// Summary renders a one-line account of the cycle.
func (r CycleResult) Summary() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("cycle error: %v", r.Err)
	case r.Applied:
		return fmt.Sprintf("applied %d steps (skipped %d), score %.3g -> %.3g",
			r.Result.Applied, r.Result.Skipped, r.Current.Score, r.Target.Score)
	default:
		return fmt.Sprintf("skipped (%s), score %.3g", r.Reason, r.Current.Score)
	}
}

// RunCycle executes one sense->decide->apply pass synchronously, logs it,
// and remembers the result for LastCycle / DebugState.
func (c *Controller) RunCycle() CycleResult {
	res := c.runCycle()
	c.lastMu.Lock()
	copied := res
	c.last = &copied
	c.lastMu.Unlock()
	c.logCycle(res)
	return res
}

// LastCycle returns a copy of the most recent cycle's result; ok is false
// before the first cycle completes.
func (c *Controller) LastCycle() (res CycleResult, ok bool) {
	c.lastMu.Lock()
	defer c.lastMu.Unlock()
	if c.last == nil {
		return CycleResult{}, false
	}
	return *c.last, true
}

func (c *Controller) runCycle() (res CycleResult) {
	m := c.cfg.Metrics
	fr := c.cfg.Flight
	m.Cycles.Inc()
	res = CycleResult{Cycle: c.cycles.Add(1), Trace: obs.NextTraceID()}

	// The cycle's root span anchors the distributed trace: sense, decide
	// and apply nest under it, and every cross-node operation the cycle
	// triggers (plan steps, ring registrations, probe trains, report
	// batches) carries a context descending from it. Without a recorder,
	// cycleCtx still carries the trace ID so remote nodes record under it.
	root := fr.StartSpanCtx(obs.TraceContext{TraceID: res.Trace}, "control", "", "cycle")
	root.SetAttr(obs.KeyCycle, res.Cycle)
	cycleCtx := root.Context()
	if !cycleCtx.Valid() {
		cycleCtx = obs.TraceContext{TraceID: res.Trace}
	}
	if c.cfg.TraceSink != nil {
		c.cfg.TraceSink(cycleCtx)
	}
	cycleStart := time.Now()
	defer func() {
		root.SetAttr("applied", res.Applied)
		if res.Reason != "" {
			root.SetAttr("reason", res.Reason)
		}
		root.End()
		m.CycleSeconds.ObserveExemplar(time.Since(cycleStart).Seconds(), res.Trace)
	}()

	// Sense.
	span := c.startSpan(cycleCtx, res, "sense")
	t0 := time.Now()
	snap, err := c.cfg.Source.Snapshot()
	m.SenseSeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		m.CycleErrors.Inc()
		span.SetAttr("error", err.Error())
		span.End()
		res.Err = fmt.Errorf("sense: %w", err)
		return res
	}
	res.Snapshot = snap
	span.SetAttr("hosts", len(snap.Hosts))
	span.SetAttr("vms", len(snap.VMs))
	span.SetAttr("demands", len(snap.Problem.Demands))
	if counts, fallbacks := provenanceSummary(snap.Provenance); counts != nil {
		span.SetAttr("estimates", counts)
		if len(fallbacks) > 0 {
			span.SetAttr("fallback_pairs", fallbacks)
		}
	}
	if snap.Deltas != nil {
		span.SetAttr("deltas", len(snap.Deltas))
	}
	if snap.DeltasReset {
		span.SetAttr("deltas_reset", true)
	}
	span.End()

	// Decide.
	span = c.startSpan(cycleCtx, res, "decide")
	t0 = time.Now()
	p := snap.Problem
	if len(p.Demands) == 0 {
		m.DecideSeconds.Observe(time.Since(t0).Seconds())
		m.PlansSkipped.Inc()
		res.Reason = "no demands observed"
		span.SetAttr("skip", res.Reason)
		span.End()
		return res
	}
	current := c.synthesizeCurrent(snap)
	changed, deltaFrac := c.demandDelta(snap)
	if snap.DeltasReset {
		// The sense layer's delta stream overflowed, so the changed set is
		// only a lower bound: treat the cycle as a regime change.
		deltaFrac = 1
	}
	target, stats := c.inc.Solve(p, current, changed, deltaFrac)
	algorithm := "gh"
	if c.cfg.SA.Iterations > 0 {
		algorithm = "sa+gh"
	}
	if stats.Mode == "warm" {
		algorithm = "warm"
	}
	res.Current = c.cfg.Objective.Evaluate(p, current)
	res.Target = c.cfg.Objective.Evaluate(p, target)
	m.Objective.Set(res.Current.Score)
	diff := vadapt.Diff(p, current, target)
	decideSec := time.Since(t0).Seconds()
	m.DecideSeconds.Observe(decideSec)
	if stats.Mode == "warm" {
		m.AdaptWarmSeconds.ObserveExemplar(decideSec, res.Trace)
	} else {
		m.AdaptFullSeconds.ObserveExemplar(decideSec, res.Trace)
	}
	span.SetAttr("algorithm", algorithm)
	span.SetAttr("sa_iterations", c.cfg.SA.Iterations)
	span.SetAttr("solve_mode", stats.Mode)
	span.SetAttr("solve_reason", stats.Reason)
	span.SetAttr("solver_iterations", stats.Iterations)
	span.SetAttr("repaired", stats.Repaired)
	span.SetAttr("delta_fraction", deltaFrac)
	span.SetAttr("changed_demands", len(changed))
	span.SetAttr("current_score", res.Current.Score)
	span.SetAttr("target_score", res.Target.Score)
	span.SetAttr("target_feasible", res.Target.Feasible)
	span.SetAttr("diff_steps", len(diff.Steps))
	if len(diff.Steps) > 0 {
		span.SetAttr("steps", diffStepStrings(diff.Steps, maxEventSteps))
	}
	if diff.Empty() {
		m.PlansSkipped.Inc()
		res.Reason = "no change"
		span.SetAttr("skip", res.Reason)
		span.End()
		return res
	}
	res.GateAllowed = c.cfg.Gate.Allows(res.Current, res.Target)
	fr.RecordCtx(cycleCtx, obs.Event{
		Component: "control", Phase: "decide", Name: "gate",
		Attrs: map[string]any{
			obs.KeyCycle:    res.Cycle,
			"allowed":       res.GateAllowed,
			"current_score": res.Current.Score,
			"target_score":  res.Target.Score,
			"gain":          res.Target.Score - res.Current.Score,
		},
	})
	if !res.GateAllowed {
		m.PlansSkipped.Inc()
		res.Reason = fmt.Sprintf("gate: gain %.3g below hysteresis threshold",
			res.Target.Score-res.Current.Score)
		span.SetAttr("skip", res.Reason)
		span.End()
		return res
	}
	span.End()

	// Act.
	span = c.startSpan(cycleCtx, res, "apply")
	t0 = time.Now()
	plan := c.translate(snap, diff, target)
	// Steps delivered to remote daemons record their spans under the apply
	// span (or directly under the cycle when no recorder is attached).
	plan.Trace = span.Context()
	if !plan.Trace.Valid() {
		plan.Trace = cycleCtx
	}
	res.Plan = plan
	result, err := c.cfg.Applier.Apply(plan)
	m.ApplySeconds.Observe(time.Since(t0).Seconds())
	res.Result = result
	span.SetAttr("plan_steps", len(plan.Steps))
	span.SetAttr("applied", result.Applied)
	span.SetAttr("skipped", result.Skipped)
	span.SetAttr("rolled_back", result.RolledBack)
	if len(result.Steps) > 0 {
		span.SetAttr("steps", truncStepResults(result.Steps, maxEventSteps))
	}
	if err != nil {
		m.CycleErrors.Inc()
		if result.RolledBack > 0 {
			m.PlansRolledBack.Inc()
		}
		if slices.ContainsFunc(result.Steps, func(s vnet.StepResult) bool { return s.Outcome == vnet.StepRollbackFailed }) {
			m.PlansRollbackIncomplete.Inc()
		}
		span.SetAttr("error", err.Error())
		span.End()
		res.Err = fmt.Errorf("apply: %w", err)
		return res
	}
	span.End()
	c.recordApplied(snap, target)
	m.PlansApplied.Inc()
	m.Objective.Set(res.Target.Score)
	res.Applied = true
	return res
}

// demandDelta sizes this cycle's traffic change. It compares the sensed
// demand rates against the previous cycle's — keyed by MAC pair, so VM
// renumbering between snapshots cannot alias demands — and folds in the
// demands named by the sense layer's VTTIF delta stream. It returns the
// demand indices whose rates moved beyond vadapt.ChangedFraction (plus new
// and delta-flagged demands) and the overall delta fraction: the sum of
// absolute rate changes (vanished demands count in full) over the larger
// of the two cycles' total rates, clamped to [0,1]. The first cycle with
// demands reports fraction 1, forcing a full solve.
func (c *Controller) demandDelta(snap *Snapshot) (changed []int, frac float64) {
	p := snap.Problem
	rates := make(map[[2]ethernet.MAC]float64, len(p.Demands))
	index := make(map[[2]ethernet.MAC]int, len(p.Demands))
	changedSet := make(map[int]bool)
	var totNew, totOld, moved float64
	for i, d := range p.Demands {
		pair := [2]ethernet.MAC{snap.VMs[d.Src], snap.VMs[d.Dst]}
		rates[pair] = d.Rate
		index[pair] = i
		totNew += d.Rate
		old := c.lastRates[pair]
		moved += math.Abs(d.Rate - old)
		if old == 0 || math.Abs(d.Rate-old) > vadapt.ChangedFraction*old {
			changedSet[i] = true
		}
	}
	for pair, old := range c.lastRates {
		totOld += old
		if _, ok := rates[pair]; !ok {
			moved += old
		}
	}
	for _, d := range snap.Deltas {
		if i, ok := index[[2]ethernet.MAC{d.Pair.Src, d.Pair.Dst}]; ok {
			changedSet[i] = true
		}
	}
	first := c.lastRates == nil
	c.lastRates = rates
	changed = make([]int, 0, len(changedSet))
	for i := range changedSet {
		changed = append(changed, i)
	}
	sort.Ints(changed)
	if first {
		return changed, 1
	}
	if tot := math.Max(totNew, totOld); tot > 0 {
		frac = moved / tot
	}
	return changed, math.Min(frac, 1)
}

// startSpan opens one control-phase span nested under the cycle's root
// span (a nil recorder yields a nil, no-op span).
func (c *Controller) startSpan(ctx obs.TraceContext, res CycleResult, phase string) *obs.Span {
	span := c.cfg.Flight.StartSpanCtx(ctx, "control", phase, phase)
	span.SetAttr(obs.KeyCycle, res.Cycle)
	return span
}

// maxEventSteps bounds how many plan steps one flight-recorder event
// carries; larger plans are truncated (the event says by how much).
const maxEventSteps = 64

func diffStepStrings(steps []vadapt.Step, max int) []string {
	n := len(steps)
	if n > max {
		n = max
	}
	out := make([]string, 0, n+1)
	for _, s := range steps[:n] {
		out = append(out, s.String())
	}
	if len(steps) > max {
		out = append(out, fmt.Sprintf("... %d more", len(steps)-max))
	}
	return out
}

func truncStepResults(steps []vnet.StepResult, max int) []vnet.StepResult {
	if len(steps) <= max {
		return steps
	}
	return steps[:max]
}

// provenanceSummary folds per-pair provenance into what one sense event
// can carry: counts by source, plus the pairs that did not get a direct
// measurement (capped — the full list lives in /debug/state).
func provenanceSummary(prov []PathProvenance) (map[string]int, []string) {
	if prov == nil {
		return nil, nil
	}
	counts := make(map[string]int)
	var fallbacks []string
	for _, p := range prov {
		counts[p.Source]++
		if p.Source != "direct" && len(fallbacks) < 32 {
			fallbacks = append(fallbacks, p.From+"->"+p.To+" ("+p.Source+")")
		}
	}
	return counts, fallbacks
}

// installedRule is one forwarding rule in /debug/state form.
type installedRule struct {
	Host    string `json:"host"`
	MAC     string `json:"mac"`
	NextHop string `json:"next_hop"`
}

// lastCycleState is the /debug/state rendering of the most recent cycle.
type lastCycleState struct {
	Cycle        uint64            `json:"cycle"`
	Trace        string            `json:"trace"`
	Summary      string            `json:"summary"`
	Applied      bool              `json:"applied"`
	GateAllowed  bool              `json:"gate_allowed"`
	Reason       string            `json:"reason,omitempty"`
	Error        string            `json:"error,omitempty"`
	CurrentScore float64           `json:"current_score"`
	TargetScore  float64           `json:"target_score"`
	Plan         []string          `json:"plan,omitempty"`
	StepResults  []vnet.StepResult `json:"step_results,omitempty"`
	Provenance   []PathProvenance  `json:"provenance,omitempty"`
}

// controllerState is what Controller.DebugState returns.
type controllerState struct {
	Cycles uint64 `json:"cycles"`
	// Installed is the configuration the controller believes is live.
	Installed struct {
		Paths map[string][]string `json:"paths,omitempty"`
		Rules []installedRule     `json:"rules,omitempty"`
		Links [][2]string         `json:"links,omitempty"`
	} `json:"installed"`
	LastCycle *lastCycleState `json:"last_cycle,omitempty"`
}

// DebugState returns a JSON-friendly introspection snapshot for the
// /debug/state endpoint: the installed configuration the controller
// remembers, and the last cycle's plan, gate decision and measurement
// provenance.
func (c *Controller) DebugState() any {
	var st controllerState
	st.Cycles = c.cycles.Load()

	c.mu.Lock()
	if len(c.lastPaths) > 0 {
		st.Installed.Paths = make(map[string][]string, len(c.lastPaths))
		for pair, names := range c.lastPaths {
			key := pair[0].String() + "->" + pair[1].String()
			st.Installed.Paths[key] = append([]string(nil), names...)
		}
	}
	for _, site := range sortedKeys(c.installedRules, compareSites) {
		st.Installed.Rules = append(st.Installed.Rules, installedRule{
			Host: site.Host, MAC: site.MAC.String(), NextHop: c.installedRules[site]})
	}
	st.Installed.Links = sortedKeys(c.installedLinks, compareLinks)
	c.mu.Unlock()

	if last, ok := c.LastCycle(); ok {
		lc := &lastCycleState{
			Cycle:        last.Cycle,
			Trace:        last.Trace,
			Summary:      last.Summary(),
			Applied:      last.Applied,
			GateAllowed:  last.GateAllowed,
			Reason:       last.Reason,
			CurrentScore: last.Current.Score,
			TargetScore:  last.Target.Score,
			StepResults:  last.Result.Steps,
		}
		if last.Err != nil {
			lc.Error = last.Err.Error()
		}
		for _, s := range last.Plan.Steps {
			lc.Plan = append(lc.Plan, s.String())
		}
		if last.Snapshot != nil {
			lc.Provenance = last.Snapshot.Provenance
		}
		st.LastCycle = lc
	}
	return st
}

// synthesizeCurrent reconstructs the configuration the controller believes
// is live: the sensed VM placement plus the previously applied paths,
// translated into the new snapshot's numbering. A remembered path whose
// hosts no longer exist, or whose endpoints no longer match where the VMs
// actually are, degrades to nil (an unmapped demand the objective
// penalizes), which naturally makes the gate favor re-planning.
func (c *Controller) synthesizeCurrent(snap *Snapshot) *vadapt.Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := snap.hostIndex()
	p := snap.Problem
	cfg := &vadapt.Config{
		Mapping: append([]topology.NodeID(nil), snap.Mapping...),
		Paths:   make([]topology.Path, len(p.Demands)),
	}
	for di, d := range p.Demands {
		pair := [2]ethernet.MAC{snap.VMs[d.Src], snap.VMs[d.Dst]}
		names, ok := c.lastPaths[pair]
		if !ok {
			continue
		}
		path := make(topology.Path, 0, len(names))
		for _, name := range names {
			id, ok := idx[name]
			if !ok {
				path = nil
				break
			}
			path = append(path, id)
		}
		if len(path) < 2 || path[0] != cfg.Mapping[d.Src] || path[len(path)-1] != cfg.Mapping[d.Dst] {
			continue
		}
		cfg.Paths[di] = path
	}
	return cfg
}

// desiredState projects a target configuration into daemon-name terms:
// every forwarding rule it needs and every direct link its paths cross.
func desiredState(snap *Snapshot, target *vadapt.Config) (map[ruleSite]string, map[[2]string]bool) {
	rules := make(map[ruleSite]string)
	links := make(map[[2]string]bool)
	for di, path := range target.Paths {
		if len(path) < 2 {
			continue
		}
		mac := snap.VMs[snap.Problem.Demands[di].Dst]
		for k := 0; k+1 < len(path); k++ {
			a, b := snap.Hosts[path[k]], snap.Hosts[path[k+1]]
			rules[ruleSite{Host: a, MAC: mac}] = b
			links[nameKey(a, b)] = true
		}
	}
	return rules, links
}

// compareSites orders rule sites by host, then by MAC bytes.
func compareSites(a, b ruleSite) int {
	return cmp.Or(strings.Compare(a.Host, b.Host), bytes.Compare(a.MAC[:], b.MAC[:]))
}

// compareLinks orders normalized link keys.
func compareLinks(a, b [2]string) int { return slices.Compare(a[:], b[:]) }

// sortedKeys returns m's keys in compare order: the controller's beliefs live
// in maps, and nothing it emits may inherit their iteration order.
func sortedKeys[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}

func nameKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// translate converts the abstract diff into an overlay plan and appends
// teardown for remembered rules/links that no longer serve any demand
// (Diff only sees the current demand list, so state left behind by
// vanished demands is reconciled here).
func (c *Controller) translate(snap *Snapshot, diff vadapt.Plan, target *vadapt.Config) vnet.Plan {
	var plan vnet.Plan
	removedRules := make(map[ruleSite]bool)
	removedLinks := make(map[[2]string]bool)
	for _, s := range diff.Steps {
		switch s.Kind {
		case vadapt.StepAddLink:
			plan.Steps = append(plan.Steps, vnet.Step{
				Op: vnet.OpAddLink, A: snap.Hosts[s.From], B: snap.Hosts[s.To]})
		case vadapt.StepRemoveLink:
			key := nameKey(snap.Hosts[s.From], snap.Hosts[s.To])
			removedLinks[key] = true
			plan.Steps = append(plan.Steps, vnet.Step{
				Op: vnet.OpRemoveLink, A: key[0], B: key[1]})
		case vadapt.StepSetRule:
			plan.Steps = append(plan.Steps, vnet.Step{
				Op: vnet.OpAddRule, Host: snap.Hosts[s.From],
				NextHop: snap.Hosts[s.To], MAC: snap.VMs[s.VM]})
		case vadapt.StepRemoveRule:
			site := ruleSite{Host: snap.Hosts[s.From], MAC: snap.VMs[s.VM]}
			removedRules[site] = true
			plan.Steps = append(plan.Steps, vnet.Step{
				Op: vnet.OpRemoveRule, Host: site.Host, MAC: site.MAC})
		case vadapt.StepMigrate:
			plan.Steps = append(plan.Steps, vnet.Step{
				Op: vnet.OpMigrate, MAC: snap.VMs[s.VM],
				A: snap.Hosts[s.From], B: snap.Hosts[s.To]})
		}
	}
	rules, links := desiredState(snap, target)
	// Teardown is emitted sorted — rules by host then MAC, links by key —
	// so the same snapshot sequence yields the same plan (and the same
	// flight-recorder trace) on every run, not map-iteration order.
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, site := range sortedKeys(c.installedRules, compareSites) {
		if _, want := rules[site]; !want && !removedRules[site] {
			plan.Steps = append(plan.Steps, vnet.Step{
				Op: vnet.OpRemoveRule, Host: site.Host, MAC: site.MAC})
		}
	}
	for _, key := range sortedKeys(c.installedLinks, compareLinks) {
		if !links[key] && !removedLinks[key] {
			plan.Steps = append(plan.Steps, vnet.Step{
				Op: vnet.OpRemoveLink, A: key[0], B: key[1]})
		}
	}
	return plan
}

// recordApplied commits the target configuration as the controller's
// belief of what is installed.
func (c *Controller) recordApplied(snap *Snapshot, target *vadapt.Config) {
	rules, links := desiredState(snap, target)
	paths := make(map[[2]ethernet.MAC][]string, len(snap.Problem.Demands))
	for di, path := range target.Paths {
		if len(path) < 2 {
			continue
		}
		d := snap.Problem.Demands[di]
		names := make([]string, len(path))
		for i, id := range path {
			names[i] = snap.Hosts[id]
		}
		paths[[2]ethernet.MAC{snap.VMs[d.Src], snap.VMs[d.Dst]}] = names
	}
	c.mu.Lock()
	c.lastPaths = paths
	c.installedRules = rules
	c.installedLinks = links
	c.mu.Unlock()
}
