package topology

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node in a Graph. IDs are dense, in [0, NumNodes()).
type NodeID int

// Edge is a directed edge with a bandwidth and latency weight.
type Edge struct {
	From    NodeID
	To      NodeID
	BW      float64 // available bandwidth in Mbit/s
	Latency float64 // one-way latency in ms
}

// Graph is a directed graph with parallel-edge-free adjacency. The zero
// value is unusable; create graphs with New.
type Graph struct {
	n     int
	adj   [][]Edge
	index map[[2]NodeID]int // (from,to) -> position in adj[from]
	names []string          // optional node names
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("topology: negative node count")
	}
	return &Graph{
		n:     n,
		adj:   make([][]Edge, n),
		index: make(map[[2]NodeID]int),
		names: make([]string, n),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.index) }

// SetName attaches a human-readable name to a node.
func (g *Graph) SetName(id NodeID, name string) {
	g.check(id)
	g.names[id] = name
}

// Name returns the node's name, or "node<i>" if unset.
func (g *Graph) Name(id NodeID) string {
	g.check(id)
	if g.names[id] == "" {
		return fmt.Sprintf("node%d", int(id))
	}
	return g.names[id]
}

func (g *Graph) check(id NodeID) {
	if id < 0 || int(id) >= g.n {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", int(id), g.n))
	}
}

// AddEdge inserts or replaces the directed edge from->to.
func (g *Graph) AddEdge(from, to NodeID, bw, latency float64) {
	g.check(from)
	g.check(to)
	if from == to {
		panic("topology: self-loop")
	}
	key := [2]NodeID{from, to}
	e := Edge{From: from, To: to, BW: bw, Latency: latency}
	if i, ok := g.index[key]; ok {
		g.adj[from][i] = e
		return
	}
	g.index[key] = len(g.adj[from])
	g.adj[from] = append(g.adj[from], e)
}

// AddBiEdge inserts the edge in both directions with identical weights.
func (g *Graph) AddBiEdge(a, b NodeID, bw, latency float64) {
	g.AddEdge(a, b, bw, latency)
	g.AddEdge(b, a, bw, latency)
}

// Edge returns the edge from->to and whether it exists.
func (g *Graph) Edge(from, to NodeID) (Edge, bool) {
	g.check(from)
	g.check(to)
	if i, ok := g.index[[2]NodeID{from, to}]; ok {
		return g.adj[from][i], true
	}
	return Edge{}, false
}

// HasEdge reports whether the directed edge from->to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	_, ok := g.Edge(from, to)
	return ok
}

// OutEdges returns the slice of edges leaving id. The slice is owned by the
// graph and must not be modified.
func (g *Graph) OutEdges(id NodeID) []Edge {
	g.check(id)
	return g.adj[id]
}

// Edges returns all edges in deterministic (from, to) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for from := 0; from < g.n; from++ {
		es := append([]Edge(nil), g.adj[from]...)
		sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
		out = append(out, es...)
	}
	return out
}

// Connected reports whether every node is reachable from node 0 treating
// edges as undirected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	undirected := make([][]NodeID, g.n)
	for _, e := range g.Edges() {
		undirected[e.From] = append(undirected[e.From], e.To)
		undirected[e.To] = append(undirected[e.To], e.From)
	}
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range undirected[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.n
}

// String renders the graph as an adjacency listing for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph(n=%d, m=%d)\n", g.n, g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %s -> %s  bw=%.1fMbps lat=%.2fms\n",
			g.Name(e.From), g.Name(e.To), e.BW, e.Latency)
	}
	return b.String()
}

// Complete builds a complete directed graph over n nodes where every edge
// gets weights from the supplied function.
func Complete(n int, weights func(from, to NodeID) (bw, latency float64)) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			bw, lat := weights(NodeID(i), NodeID(j))
			g.AddEdge(NodeID(i), NodeID(j), bw, lat)
		}
	}
	return g
}
