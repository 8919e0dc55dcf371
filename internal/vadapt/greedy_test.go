package vadapt

import (
	"testing"

	"freemeasure/internal/topology"
)

// challengeProblem is the Figure 9 scenario as an adaptation instance:
// VMs 0,1,2 are the chatty trio, VM 3 talks lightly to VM 0. The unique
// good placement puts VMs 0-2 in the fast domain (hosts 3-5) and VM 3 in
// the slow one.
func challengeProblem() *Problem {
	var demands []Demand
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				demands = append(demands, Demand{Src: VMID(i), Dst: VMID(j), Rate: 2})
			}
		}
	}
	demands = append(demands,
		Demand{Src: 3, Dst: 0, Rate: 0.2},
		Demand{Src: 0, Dst: 3, Rate: 0.2},
	)
	return &Problem{
		Hosts:   topology.Challenge(topology.DefaultChallenge()),
		NumVMs:  4,
		Demands: demands,
	}
}

func inFastDomain(h topology.NodeID) bool { return h >= topology.ChallengeDomain2 }

func TestOrderVMsByIntensity(t *testing.T) {
	p := &Problem{
		Hosts:  topology.Complete(5, func(a, b topology.NodeID) (float64, float64) { return 100, 1 }),
		NumVMs: 4,
		Demands: []Demand{
			{Src: 0, Dst: 1, Rate: 5},
			{Src: 2, Dst: 3, Rate: 10},
		},
	}
	order := orderVMs(p)
	want := []VMID{2, 3, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestOrderVMsIncludesSilentVMs(t *testing.T) {
	p := &Problem{
		Hosts:   topology.Complete(5, func(a, b topology.NodeID) (float64, float64) { return 100, 1 }),
		NumVMs:  4,
		Demands: []Demand{{Src: 1, Dst: 2, Rate: 1}},
	}
	order := orderVMs(p)
	if len(order) != 4 {
		t.Fatalf("order = %v, want all 4 VMs", order)
	}
}

func TestGreedyMappingChallenge(t *testing.T) {
	p := challengeProblem()
	mapping := GreedyMapping(p)
	for vm := 0; vm < 3; vm++ {
		if !inFastDomain(mapping[vm]) {
			t.Fatalf("chatty vm%d mapped to slow host %d (mapping %v)", vm, mapping[vm], mapping)
		}
	}
	if inFastDomain(mapping[3]) {
		t.Fatalf("quiet vm3 took a fast host (mapping %v)", mapping)
	}
}

func TestGreedyPathsAvoidSaturatedEdges(t *testing.T) {
	// Hosts: direct edge 0->1 and detour 0->2->1, all capacity 10. Two
	// identical demands of 6: the second must take the detour because the
	// first leaves only 4 on its chosen path.
	g := topology.New(3)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(0, 2, 10, 1)
	g.AddEdge(2, 1, 10, 1)
	p := &Problem{
		Hosts:  g,
		NumVMs: 2,
		Demands: []Demand{
			{Src: 0, Dst: 1, Rate: 6},
			{Src: 0, Dst: 1, Rate: 6},
		},
	}
	paths := GreedyPaths(p, []topology.NodeID{0, 1})
	if paths[0] == nil || paths[1] == nil {
		t.Fatalf("paths = %v", paths)
	}
	if len(paths[0]) == len(paths[1]) {
		t.Fatalf("both demands took the same-shape path: %v", paths)
	}
	ev := ResidualBW{}.Evaluate(p, &Config{Mapping: []topology.NodeID{0, 1}, Paths: paths})
	if !ev.Feasible {
		t.Fatalf("greedy paths infeasible: %+v", ev)
	}
}

func TestGreedyPathsColocatedAndUnmappable(t *testing.T) {
	g := topology.New(3)
	g.AddBiEdge(0, 1, 10, 1) // host 2 is isolated
	p := &Problem{
		Hosts:  g,
		NumVMs: 3,
		Demands: []Demand{
			{Src: 0, Dst: 1, Rate: 1},
			{Src: 0, Dst: 2, Rate: 1},
		},
	}
	paths := GreedyPaths(p, []topology.NodeID{0, 1, 2})
	if len(paths[0]) != 2 {
		t.Fatalf("reachable demand path = %v", paths[0])
	}
	if paths[1] != nil {
		t.Fatalf("unreachable demand mapped: %v", paths[1])
	}
}

func TestGreedyFullChallengeFeasible(t *testing.T) {
	p := challengeProblem()
	c := Greedy(p)
	if err := c.Valid(p); err != nil {
		t.Fatal(err)
	}
	ev := ResidualBW{}.Evaluate(p, c)
	if !ev.Feasible {
		t.Fatalf("greedy infeasible on challenge: %+v", ev)
	}
	if ev.Score <= 0 {
		t.Fatalf("greedy score = %v", ev.Score)
	}
}
