package vadapt

import (
	"sort"

	"freemeasure/internal/topology"
)

// This file adds incremental re-optimization on top of the paper's GH/SA:
// instead of re-solving from scratch every adaptation cycle, the solver
// accepts the currently installed configuration as a warm start, repairs
// and re-routes only the demands whose rates (or structure) changed, and
// polishes them with a short focused anneal. A full GH+SA re-solve still
// runs when the traffic delta is large (regime change), when the prior
// configuration no longer fits the problem shape, or periodically as a
// drift backstop. Seeded determinism is preserved: the same problem,
// prior, and delta always produce the same configuration.

const (
	// FullFraction is the traffic-delta fraction (sum of absolute rate
	// changes over total rate) above which the solver declares a regime
	// change and re-solves from scratch.
	FullFraction = 0.3
	// ChangedFraction is the per-demand relative rate change above which
	// callers consider a demand changed when computing the delta set.
	ChangedFraction = 0.05
)

// warmIterations is the focused-anneal budget per warm solve:
// max(64, saIterations/8), and 0 when the underlying SA is disabled (pure
// greedy reroute, fully deterministic).
func warmIterations(saIterations int) int {
	if saIterations <= 0 {
		return 0
	}
	return max(64, saIterations/8)
}

// WarmConfig tunes the warm-start policy.
type WarmConfig struct {
	// FullEvery forces a full re-solve after this many consecutive warm
	// solves, bounding accumulated drift. Default 16; negative disables
	// the backstop.
	FullEvery int
}

// SolveStats reports what one Incremental.Solve did.
type SolveStats struct {
	Mode       string // "warm" or "full"
	Reason     string // why that mode was chosen
	Iterations int    // SA iterations spent this solve
	Repaired   int    // demands re-routed on the warm path
}

// Incremental is a stateful solver wrapping GH/SA with warm-start reuse.
// It is not safe for concurrent use; the controller owns one.
type Incremental struct {
	Objective Objective // nil = ResidualBW{}
	SA        SAConfig  // full-solve annealer config (Iterations 0 = GH only)
	Warm      WarmConfig
	Metrics   *Metrics

	sinceFull int
}

// Solve produces a configuration for p. prev is the currently installed
// configuration (nil when nothing is installed), changed lists the demand
// indices of p whose rates moved materially, and deltaFraction is the
// overall traffic-delta magnitude in [0,1] (1 = everything changed).
func (inc *Incremental) Solve(p *Problem, prev *Config, changed []int, deltaFraction float64) (*Config, SolveStats) {
	p.Validate()
	fullEvery := inc.Warm.FullEvery
	if fullEvery == 0 {
		fullEvery = 16
	}
	reason := ""
	switch {
	case prev == nil || len(prev.Mapping) != p.NumVMs || len(prev.Paths) != len(p.Demands):
		reason = "no usable prior configuration"
	case !mappingValid(p, prev.Mapping):
		reason = "prior mapping invalid for host set"
	case deltaFraction > FullFraction:
		reason = "regime change"
	case fullEvery > 0 && inc.sinceFull >= fullEvery:
		reason = "periodic full re-solve"
	}
	if reason != "" {
		return inc.fullSolve(p, reason, len(changed))
	}
	return inc.warmSolve(p, prev, changed)
}

func (inc *Incremental) fullSolve(p *Problem, reason string, changed int) (*Config, SolveStats) {
	inc.sinceFull = 0
	if inc.Metrics != nil {
		inc.Metrics.FullSolves.Inc()
	}
	cfg := Greedy(p, inc.Metrics)
	iters := 0
	if inc.SA.Iterations > 0 {
		sa := inc.SA
		if sa.Metrics == nil {
			sa.Metrics = inc.Metrics
		}
		cfg, _ = Anneal(p, inc.objective(), cfg, sa)
		iters = sa.Iterations
	}
	return cfg, SolveStats{Mode: "full", Reason: reason, Iterations: iters, Repaired: changed}
}

func (inc *Incremental) warmSolve(p *Problem, prev *Config, changed []int) (*Config, SolveStats) {
	inc.sinceFull++
	if inc.Metrics != nil {
		inc.Metrics.WarmSolves.Inc()
	}
	cfg := prev.Clone()
	// Repair set: the explicitly changed demands plus every demand whose
	// prior path no longer matches its endpoints (migrations, host-set
	// drift, previously unroutable demands).
	repair := make(map[int]bool, len(changed))
	for _, i := range changed {
		if i >= 0 && i < len(p.Demands) {
			repair[i] = true
		}
	}
	for i, d := range p.Demands {
		path := cfg.Paths[i]
		src, dst := cfg.Mapping[d.Src], cfg.Mapping[d.Dst]
		if src == dst {
			if len(path) != 1 || path[0] != src {
				repair[i] = true
			}
			continue
		}
		if len(path) < 2 || path[0] != src || path[len(path)-1] != dst ||
			!path.Simple() || !path.Valid(p.Hosts) {
			repair[i] = true
		}
	}
	rerouteDemands(p, cfg, repair)
	iters := 0
	if warm := warmIterations(inc.SA.Iterations); len(repair) > 0 && warm > 0 {
		sa := inc.SA
		sa.Iterations = warm
		sa.FocusPaths = sortedIndices(repair)
		if sa.Metrics == nil {
			sa.Metrics = inc.Metrics
		}
		cfg, _ = Anneal(p, inc.objective(), cfg, sa)
		iters = sa.Iterations
	}
	return cfg, SolveStats{Mode: "warm", Reason: "small delta", Iterations: iters, Repaired: len(repair)}
}

func (inc *Incremental) objective() Objective {
	if inc.Objective != nil {
		return inc.Objective
	}
	return ResidualBW{}
}

func mappingValid(p *Problem, mapping []topology.NodeID) bool {
	used := make(map[topology.NodeID]bool, len(mapping))
	for _, h := range mapping {
		if h < 0 || int(h) >= p.Hosts.NumNodes() || used[h] {
			return false
		}
		used[h] = true
	}
	return true
}

// rerouteDemands clears the paths in the repair set and re-routes them in
// descending rate order on the residual capacity left by the kept paths —
// the greedy path step restricted to the changed neighborhood.
func rerouteDemands(p *Problem, c *Config, repair map[int]bool) {
	residual := make(map[[2]topology.NodeID]float64, p.Hosts.NumEdges())
	for _, e := range p.Hosts.Edges() {
		residual[[2]topology.NodeID{e.From, e.To}] = p.capacity(e)
	}
	for i, path := range c.Paths {
		if repair[i] {
			c.Paths[i] = nil
			continue
		}
		if path == nil {
			continue
		}
		rate := p.Demands[i].Rate
		for k := 0; k+1 < len(path); k++ {
			residual[[2]topology.NodeID{path[k], path[k+1]}] -= rate
		}
	}
	capFn := func(e topology.Edge) float64 {
		return residual[[2]topology.NodeID{e.From, e.To}]
	}
	order := sortedIndices(repair)
	sort.SliceStable(order, func(a, b int) bool {
		return p.Demands[order[a]].Rate > p.Demands[order[b]].Rate
	})
	for _, i := range order {
		d := p.Demands[i]
		src, dst := c.Mapping[d.Src], c.Mapping[d.Dst]
		if src == dst {
			c.Paths[i] = topology.Path{src}
			continue
		}
		path, width := topology.WidestPath(p.Hosts, src, dst, capFn)
		if path == nil || width <= 0 {
			c.Paths[i] = nil
			continue
		}
		c.Paths[i] = path
		for k := 0; k+1 < len(path); k++ {
			residual[[2]topology.NodeID{path[k], path[k+1]}] -= d.Rate
		}
	}
}

func sortedIndices(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
