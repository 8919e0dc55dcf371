package topology

import (
	"strings"
	"testing"
)

func TestNewGraphEmpty(t *testing.T) {
	g := New(3)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if !g.Connected() == (g.NumNodes() > 1) {
		// 3 isolated nodes are not connected
	}
	if g.Connected() {
		t.Fatal("3 isolated nodes reported connected")
	}
}

func TestAddEdgeAndLookup(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 100, 5)
	e, ok := g.Edge(0, 1)
	if !ok {
		t.Fatal("edge 0->1 missing")
	}
	if e.BW != 100 || e.Latency != 5 {
		t.Fatalf("edge = %+v, want bw=100 lat=5", e)
	}
	if _, ok := g.Edge(1, 0); ok {
		t.Fatal("reverse edge should not exist")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestAddEdgeReplaces(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 100, 5)
	g.AddEdge(0, 1, 50, 7)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after replace", g.NumEdges())
	}
	e, _ := g.Edge(0, 1)
	if e.BW != 50 || e.Latency != 7 {
		t.Fatalf("edge = %+v, want replaced weights", e)
	}
}

func TestAddBiEdge(t *testing.T) {
	g := New(2)
	g.AddBiEdge(0, 1, 10, 1)
	for _, pair := range [][2]NodeID{{0, 1}, {1, 0}} {
		e, ok := g.Edge(pair[0], pair[1])
		if !ok || e.BW != 10 || e.Latency != 1 {
			t.Fatalf("edge %v = %+v ok=%v", pair, e, ok)
		}
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self loop")
		}
	}()
	New(2).AddEdge(1, 1, 1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range node")
		}
	}()
	New(2).AddEdge(0, 5, 1, 1)
}

func TestNames(t *testing.T) {
	g := New(2)
	if got := g.Name(0); got != "node0" {
		t.Fatalf("default name = %q", got)
	}
	g.SetName(0, "proxy")
	if got := g.Name(0); got != "proxy" {
		t.Fatalf("name = %q, want proxy", got)
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(0, 2, 1, 1)
	g.AddEdge(0, 1, 1, 1)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("len(Edges) = %d", len(es))
	}
	want := [][2]NodeID{{0, 1}, {0, 2}, {1, 2}}
	for i, e := range es {
		if e.From != want[i][0] || e.To != want[i][1] {
			t.Fatalf("Edges[%d] = %d->%d, want %v", i, e.From, e.To, want[i])
		}
	}
}

func TestConnected(t *testing.T) {
	g := New(4)
	g.AddBiEdge(0, 1, 1, 1)
	g.AddBiEdge(2, 3, 1, 1)
	if g.Connected() {
		t.Fatal("two components reported connected")
	}
	g.AddEdge(1, 2, 1, 1) // directed edge still connects in undirected sense
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(4, func(from, to NodeID) (float64, float64) {
		return float64(from*10 + to), 1
	})
	if g.NumEdges() != 12 {
		t.Fatalf("NumEdges = %d, want 12", g.NumEdges())
	}
	e, ok := g.Edge(2, 3)
	if !ok || e.BW != 23 {
		t.Fatalf("edge 2->3 = %+v ok=%v", e, ok)
	}
}

func TestStringContainsNamesAndWeights(t *testing.T) {
	g := New(2)
	g.SetName(0, "alpha")
	g.AddEdge(0, 1, 42.5, 3)
	s := g.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "42.5") {
		t.Fatalf("String() = %q missing content", s)
	}
}
