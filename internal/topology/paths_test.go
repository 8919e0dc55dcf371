package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the classic widest-path counterexample to shortest-path
// intuition:
//
//	0 -> 1 (bw 10), 1 -> 3 (bw 10)      narrow two-hop path
//	0 -> 2 (bw 100), 2 -> 3 (bw 80)     wide two-hop path
//	0 -> 3 (bw 5)                       direct but very narrow
func diamond() *Graph {
	g := New(4)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 3, 10, 1)
	g.AddEdge(0, 2, 100, 1)
	g.AddEdge(2, 3, 80, 1)
	g.AddEdge(0, 3, 5, 1)
	return g
}

func TestWidestPathsPrefersWideDetour(t *testing.T) {
	g := diamond()
	width, prev := WidestPaths(g, 0, EdgeBW)
	if width[3] != 80 {
		t.Fatalf("width[3] = %v, want 80", width[3])
	}
	p := ExtractPath(prev, 0, 3)
	want := Path{0, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestWidestPathsSource(t *testing.T) {
	g := diamond()
	width, prev := WidestPaths(g, 0, EdgeBW)
	if !math.IsInf(width[0], 1) {
		t.Fatalf("width[src] = %v, want +Inf", width[0])
	}
	if prev[0] != -1 {
		t.Fatalf("prev[src] = %v, want -1", prev[0])
	}
}

func TestWidestPathsUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 10, 1)
	width, prev := WidestPaths(g, 0, EdgeBW)
	if !math.IsInf(width[2], -1) {
		t.Fatalf("width[2] = %v, want -Inf", width[2])
	}
	if ExtractPath(prev, 0, 2) != nil {
		t.Fatal("ExtractPath to unreachable node should be nil")
	}
}

func TestWidestPathsCustomCapacity(t *testing.T) {
	g := diamond()
	// Invert capacities: residual graph where the wide edges are used up.
	residual := map[[2]NodeID]float64{
		{0, 2}: 1, {2, 3}: 1,
	}
	capFn := func(e Edge) float64 {
		if r, ok := residual[[2]NodeID{e.From, e.To}]; ok {
			return r
		}
		return e.BW
	}
	width, _ := WidestPaths(g, 0, capFn)
	if width[3] != 10 {
		t.Fatalf("width[3] = %v, want 10 via 0-1-3 on residual graph", width[3])
	}
}

func TestExtractPathTrivial(t *testing.T) {
	p := ExtractPath([]NodeID{-1, -1}, 1, 1)
	if len(p) != 1 || p[0] != 1 {
		t.Fatalf("self path = %v", p)
	}
}

func TestPathHelpers(t *testing.T) {
	g := diamond()
	p := Path{0, 2, 3}
	if !p.Valid(g) {
		t.Fatal("valid path reported invalid")
	}
	if !p.Simple() {
		t.Fatal("simple path reported non-simple")
	}
	if got := p.Latency(g); got != 2 {
		t.Fatalf("Latency = %v, want 2", got)
	}
	bad := Path{0, 3, 1}
	if bad.Valid(g) {
		t.Fatal("invalid path reported valid")
	}
	loopy := Path{0, 2, 0}
	if loopy.Simple() {
		t.Fatal("loopy path reported simple")
	}
	if (Path{}).Valid(g) {
		t.Fatal("empty path reported valid")
	}
}

func TestPathClone(t *testing.T) {
	p := Path{0, 1, 2}
	c := p.Clone()
	c[0] = 9
	if p[0] != 0 {
		t.Fatal("Clone aliases original")
	}
}

// bruteWidest computes the widest src->dst bottleneck by exhaustive DFS over
// simple paths. Exponential, fine for n <= 8.
func bruteWidest(g *Graph, src, dst NodeID) float64 {
	best := math.Inf(-1)
	visited := make([]bool, g.NumNodes())
	var dfs func(v NodeID, width float64)
	dfs = func(v NodeID, width float64) {
		if v == dst {
			if width > best {
				best = width
			}
			return
		}
		visited[v] = true
		for _, e := range g.OutEdges(v) {
			if !visited[e.To] {
				dfs(e.To, math.Min(width, e.BW))
			}
		}
		visited[v] = false
	}
	dfs(src, math.Inf(1))
	return best
}

// TestWidestPathsMatchesBruteForce is the property test backing the
// "adapted Dijkstra" correctness claim: on random graphs the max-min width
// from Dijkstra equals the exhaustive-search optimum for every destination.
func TestWidestPathsMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.5 {
					g.AddEdge(NodeID(i), NodeID(j), 1+rng.Float64()*99, rng.Float64()*10)
				}
			}
		}
		width, prev := WidestPaths(g, 0, EdgeBW)
		for dst := 1; dst < n; dst++ {
			want := bruteWidest(g, 0, NodeID(dst))
			if math.IsInf(want, -1) != math.IsInf(width[dst], -1) {
				return false
			}
			if !math.IsInf(want, -1) && math.Abs(want-width[dst]) > 1e-9 {
				return false
			}
			// The extracted path, when it exists, must achieve the width.
			if p := ExtractPath(prev, 0, NodeID(dst)); p != nil {
				if !p.Valid(g) || !p.Simple() {
					return false
				}
				bottleneck := math.Inf(1)
				for i := 0; i+1 < len(p); i++ {
					e, _ := g.Edge(p[i], p[i+1])
					bottleneck = math.Min(bottleneck, e.BW)
				}
				if math.Abs(bottleneck-width[dst]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWidestPathConvenience(t *testing.T) {
	g := diamond()
	p, w := WidestPath(g, 0, 3, EdgeBW)
	if w != 80 || len(p) != 3 {
		t.Fatalf("WidestPath = %v width %v", p, w)
	}
	p, w = WidestPath(g, 3, 0, EdgeBW)
	if p != nil || !math.IsInf(w, -1) {
		t.Fatalf("reverse WidestPath = %v width %v, want unreachable", p, w)
	}
}
