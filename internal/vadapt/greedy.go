package vadapt

import (
	"sort"

	"freemeasure/internal/topology"
)

// This file implements the paper's greedy heuristic (section 4.2): an
// intensity-ordered VM list is matched against a bottleneck-ordered host
// list (4.2.1), then each demand is greedily assigned the widest path on
// the residual-capacity graph using the adapted Dijkstra (4.2.2/4.2.3),
// with no backtracking.

// orderVMs implements steps 1-3 of section 4.2.1: order the VM adjacency
// list by decreasing traffic intensity and extract an ordered VM list
// breadth-first, eliminating duplicates.
func orderVMs(p *Problem) []VMID {
	demands := append([]Demand(nil), p.Demands...)
	sort.SliceStable(demands, func(i, j int) bool { return demands[i].Rate > demands[j].Rate })
	var order []VMID
	seen := make(map[VMID]bool, p.NumVMs)
	add := func(v VMID) {
		if !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	for _, d := range demands {
		add(d.Src)
		add(d.Dst)
	}
	// VMs with no traffic at all still need hosts; append them last.
	for v := 0; v < p.NumVMs; v++ {
		add(VMID(v))
	}
	return order
}

// orderHosts implements steps 4-6: for each host pair find the widest-path
// bottleneck bandwidth, order pairs by decreasing bottleneck, and extract
// an ordered host list breadth-first, eliminating duplicates.
func orderHosts(p *Problem) []topology.NodeID {
	n := p.Hosts.NumNodes()
	type hostPair struct {
		a, b  topology.NodeID
		width float64
	}
	var pairs []hostPair
	for src := 0; src < n; src++ {
		width, _ := topology.WidestPaths(p.Hosts, topology.NodeID(src), p.capacity)
		for dst := 0; dst < n; dst++ {
			if dst != src {
				pairs = append(pairs, hostPair{topology.NodeID(src), topology.NodeID(dst), width[dst]})
			}
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].width > pairs[j].width })
	var order []topology.NodeID
	seen := make(map[topology.NodeID]bool, n)
	add := func(h topology.NodeID) {
		if !seen[h] {
			seen[h] = true
			order = append(order, h)
		}
	}
	for _, pr := range pairs {
		add(pr.a)
		add(pr.b)
	}
	for h := 0; h < n; h++ {
		add(topology.NodeID(h))
	}
	return order
}

// GreedyMapping implements section 4.2.1 (step 7): the i-th
// highest-traffic VM goes to the i-th best-connected host.
func GreedyMapping(p *Problem) []topology.NodeID {
	p.Validate()
	vms := orderVMs(p)
	hosts := orderHosts(p)
	mapping := make([]topology.NodeID, p.NumVMs)
	for i, vm := range vms {
		mapping[vm] = hosts[i]
	}
	return mapping
}

// GreedyPaths implements section 4.2.2: demands in descending intensity
// order each get the widest path on the current residual-capacity graph
// (adapted Dijkstra), with the demand then subtracted; no backtracking. A
// demand whose endpoints are colocated gets a single-node path; a demand
// with no usable path at all gets nil.
func GreedyPaths(p *Problem, mapping []topology.NodeID) []topology.Path {
	residual := make(map[[2]topology.NodeID]float64, p.Hosts.NumEdges())
	for _, e := range p.Hosts.Edges() {
		residual[[2]topology.NodeID{e.From, e.To}] = p.capacity(e)
	}
	capFn := func(e topology.Edge) float64 {
		return residual[[2]topology.NodeID{e.From, e.To}]
	}

	order := make([]int, len(p.Demands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Demands[order[a]].Rate > p.Demands[order[b]].Rate
	})

	paths := make([]topology.Path, len(p.Demands))
	for _, i := range order {
		d := p.Demands[i]
		src, dst := mapping[d.Src], mapping[d.Dst]
		if src == dst {
			paths[i] = topology.Path{src}
			continue
		}
		path, width := topology.WidestPath(p.Hosts, src, dst, capFn)
		if path == nil || width <= 0 {
			paths[i] = nil // impossible to map (the no-backtracking caveat)
			continue
		}
		paths[i] = path
		for k := 0; k+1 < len(path); k++ {
			residual[[2]topology.NodeID{path[k], path[k+1]}] -= d.Rate
		}
	}
	return paths
}

// Greedy runs the full greedy heuristic: mapping, then paths. An optional
// *Metrics counts the run.
func Greedy(p *Problem, ms ...*Metrics) *Config {
	for _, m := range ms {
		if m != nil {
			m.GreedyRuns.Inc()
		}
	}
	mapping := GreedyMapping(p)
	return &Config{Mapping: mapping, Paths: GreedyPaths(p, mapping)}
}
