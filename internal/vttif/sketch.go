package vttif

// Bounded-memory state the Aggregator starts once its exact table fills: a
// count-min sketch holding (aged) rate mass for every pair seen since,
// beside the table, which then retains only the heavy edges exactly.
//
// Error bounds (see DESIGN.md §9 for the derivation):
//
//   - count-min with conservative update overestimates only: for any pair,
//     estimate ≥ true aged mass, and with probability ≥ 1 − (1/2)^depth the
//     overshoot is at most (e/width) × total aged mass. Uniformly scaling
//     the sketch (aging) preserves both properties.
//   - space-saving admission then retains every pair whose smoothed rate
//     exceeds (total smoothed mass)/maxPairs; an admitted entry overshoots
//     its true smoothed rate by at most the evicted minimum it inherited.

// pairHash is FNV-1a over the 12 MAC bytes of the pair — the shared hash
// for Local striping and the sketch row derivation.
func pairHash(p Pair) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p.Src {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range p.Dst {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// countMin is a conservative-update count-min sketch over float64 mass.
// Row indices derive from one 64-bit hash (Kirsch–Mitzenmacher): row i uses
// (h1 + i·h2) mod width with h2 forced odd, so adding a row never needs a
// second hash pass over the key.
type countMin struct {
	width, depth int
	rows         [][]float64
}

func newCountMin(width, depth int) *countMin {
	c := &countMin{width: width, depth: depth, rows: make([][]float64, depth)}
	for i := range c.rows {
		c.rows[i] = make([]float64, width)
	}
	return c
}

func (c *countMin) indices(p Pair, idx []int) []int {
	h := pairHash(p)
	h1 := h
	h2 := (h >> 32) | 1
	for i := 0; i < c.depth; i++ {
		idx = append(idx, int((h1+uint64(i)*h2)%uint64(c.width)))
	}
	return idx
}

// add performs a conservative update: every cell rises only as far as the
// new minimum estimate, keeping collisions from inflating each other.
// Returns the post-add estimate for p.
func (c *countMin) add(p Pair, v float64) float64 {
	var buf [8]int
	idx := c.indices(p, buf[:0])
	est := c.rows[0][idx[0]]
	for i := 1; i < c.depth; i++ {
		if cell := c.rows[i][idx[i]]; cell < est {
			est = cell
		}
	}
	est += v
	for i := 0; i < c.depth; i++ {
		if c.rows[i][idx[i]] < est {
			c.rows[i][idx[i]] = est
		}
	}
	return est
}

// estimate returns the (overestimate-only) aged mass for p.
func (c *countMin) estimate(p Pair) float64 {
	var buf [8]int
	idx := c.indices(p, buf[:0])
	est := c.rows[0][idx[0]]
	for i := 1; i < c.depth; i++ {
		if cell := c.rows[i][idx[i]]; cell < est {
			est = cell
		}
	}
	return est
}

// scale ages every cell by gamma in [0,1]. Uniform scaling preserves the
// overestimate-only property against the equally-aged true mass.
func (c *countMin) scale(gamma float64) {
	for _, row := range c.rows {
		for i := range row {
			row[i] *= gamma
		}
	}
}

// rateHeap is a lazy binary min-heap of (pair, rate) entries over the
// retained table. Every rate change pushes an entry; an entry whose rate
// no longer matches the table is stale and is dropped when it reaches the
// root. So admission reads the lightest edge in amortized O(1), and a
// rate change or eviction costs O(log maxPairs) slice moves and no map
// writes. Rebuilding from the table at twice the cap bounds its memory.
type rateHeap []rateItem

type rateItem struct {
	p Pair
	r float64
}

// min returns the lightest retained pair and its rate, dropping stale
// entries on the way. The table must not be empty.
func (h *rateHeap) min(rates map[Pair]float64) (Pair, float64) {
	for {
		it := (*h)[0]
		if r, ok := rates[it.p]; ok && r == it.r {
			return it.p, it.r
		}
		last := len(*h) - 1
		(*h)[0] = (*h)[last]
		*h = (*h)[:last]
		h.down(0)
	}
}

func (h *rateHeap) push(p Pair, r float64) {
	*h = append(*h, rateItem{p, r})
	h.up(len(*h) - 1)
}

// replaceMin swaps the root entry, just returned by min, for p at rate r.
func (h *rateHeap) replaceMin(p Pair, r float64) {
	(*h)[0] = rateItem{p, r}
	h.down(0)
}

// rebuild replaces every entry with one live entry per retained pair.
func (h *rateHeap) rebuild(rates map[Pair]float64) {
	*h = (*h)[:0]
	for p, r := range rates {
		h.push(p, r)
	}
}

func (h rateHeap) up(i int) {
	for p := (i - 1) / 2; i > 0 && h[i].r < h[p].r; i, p = p, (p-1)/2 {
		h[i], h[p] = h[p], h[i]
	}
}

func (h rateHeap) down(i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1].r < h[c].r {
			c++
		}
		if h[i].r <= h[c].r {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}
