package topology

import (
	"container/heap"
	"math"
)

// Path is an ordered list of node IDs, source first.
type Path []NodeID

// Valid reports whether the path is non-empty and every consecutive pair is
// an edge of g.
func (p Path) Valid(g *Graph) bool {
	if len(p) == 0 {
		return false
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			return false
		}
	}
	return true
}

// Simple reports whether the path visits no node twice.
func (p Path) Simple() bool {
	seen := make(map[NodeID]bool, len(p))
	for _, v := range p {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Latency returns the summed edge latency along the path. Missing edges
// yield +Inf.
func (p Path) Latency(g *Graph) float64 {
	total := 0.0
	for i := 0; i+1 < len(p); i++ {
		e, ok := g.Edge(p[i], p[i+1])
		if !ok {
			return math.Inf(1)
		}
		total += e.Latency
	}
	return total
}

// Clone returns a copy of the path.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// EdgeBW returns e.BW; it is the default capacity function.
func EdgeBW(e Edge) float64 { return e.BW }

// item is a priority-queue entry for WidestPaths.
type item struct {
	node NodeID
	key  float64
	idx  int
}

type maxHeap []*item

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i].key > h[j].key }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *maxHeap) Push(x interface{}) { it := x.(*item); it.idx = len(*h); *h = append(*h, it) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// WidestPaths solves the single-source widest-paths problem: for every node
// it computes the maximum over all paths from src of the minimum capacity
// along the path. This is the paper's "adapted Dijkstra's algorithm"
// (section 4.2.3), the select-widest analogue of shortest paths. capFn maps
// an edge to its capacity (use EdgeBW for raw available bandwidth, or a
// residual-capacity closure during greedy demand mapping).
//
// It returns width[v] (the bottleneck bandwidth of the widest src->v path;
// -Inf if unreachable, +Inf for src itself) and prev[v] (the predecessor of
// v on that path; -1 for src and unreachable nodes).
//
// Correctness follows the classic cut argument adapted to the max-min
// semiring: when a node u is extracted with the largest tentative width, no
// later relaxation can improve it, because any other path to u leaves the
// settled set through an edge whose tentative width is already <= width[u].
func WidestPaths(g *Graph, src NodeID, capFn func(Edge) float64) (width []float64, prev []NodeID) {
	n := g.NumNodes()
	width = make([]float64, n)
	prev = make([]NodeID, n)
	items := make([]*item, n)
	h := &maxHeap{}
	for v := 0; v < n; v++ {
		width[v] = math.Inf(-1)
		prev[v] = -1
		items[v] = &item{node: NodeID(v), key: math.Inf(-1)}
	}
	width[src] = math.Inf(1)
	items[src].key = math.Inf(1)
	for _, it := range items {
		heap.Push(h, it)
	}
	for h.Len() > 0 {
		u := heap.Pop(h).(*item)
		if math.IsInf(u.key, -1) {
			break // remaining nodes unreachable
		}
		for _, e := range g.OutEdges(u.node) {
			c := capFn(e)
			w := math.Min(width[u.node], c)
			if w > width[e.To] {
				width[e.To] = w
				prev[e.To] = u.node
				it := items[e.To]
				it.key = w
				heap.Fix(h, it.idx)
			}
		}
	}
	return width, prev
}

// ExtractPath reconstructs the src->dst path from a predecessor array
// produced by WidestPaths. It returns nil if dst is
// unreachable.
func ExtractPath(prev []NodeID, src, dst NodeID) Path {
	if src == dst {
		return Path{src}
	}
	if prev[dst] == -1 {
		return nil
	}
	var rev Path
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
		if len(rev) > len(prev) {
			return nil // cycle guard; cannot happen with valid prev arrays
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// WidestPath returns the single widest src->dst path and its bottleneck.
// It returns (nil, -Inf) when dst is unreachable.
func WidestPath(g *Graph, src, dst NodeID, capFn func(Edge) float64) (Path, float64) {
	width, prev := WidestPaths(g, src, capFn)
	p := ExtractPath(prev, src, dst)
	if p == nil {
		return nil, math.Inf(-1)
	}
	return p, width[dst]
}
