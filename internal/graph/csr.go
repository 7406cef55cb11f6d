package graph

import (
	"fmt"
	"slices"

	"faultyrank/internal/par"
)

// CSR is a Compressed Sparse Row adjacency structure: the out-neighbours
// of vertex v occupy Targets[Offsets[v]:Offsets[v+1]], sorted ascending.
// Kinds, when non-nil, is parallel to Targets. Offsets are 64-bit so the
// structure scales past 2^31 edges (RMAT-26 at degree 32 has 2.1 G edges).
type CSR struct {
	N       int      // number of vertices
	Offsets []int64  // length N+1
	Targets []uint32 // length NumEdges
	Kinds   []EdgeKind
}

// NumEdges returns the total directed edge count.
func (c *CSR) NumEdges() int64 { return int64(len(c.Targets)) }

// Degree returns the out-degree of v.
func (c *CSR) Degree(v uint32) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}

// Neighbors returns the sorted out-neighbour slice of v. The slice aliases
// the CSR's storage and must not be modified.
func (c *CSR) Neighbors(v uint32) []uint32 {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// EdgeRange returns the [lo, hi) index range of v's edges in Targets.
func (c *CSR) EdgeRange(v uint32) (lo, hi int64) {
	return c.Offsets[v], c.Offsets[v+1]
}

// HasEdge reports whether a directed edge u->v exists, via binary search
// over u's sorted adjacency.
func (c *CSR) HasEdge(u, v uint32) bool {
	_, ok := slices.BinarySearch(c.Neighbors(u), v)
	return ok
}

// EdgeMultiplicity returns how many parallel u->v edges exist.
func (c *CSR) EdgeMultiplicity(u, v uint32) int {
	adj := c.Neighbors(u)
	first, _ := slices.BinarySearch(adj, v)
	n := 0
	for i := first; i < len(adj) && adj[i] == v; i++ {
		n++
	}
	return n
}

// Edges materialises the CSR back into an edge list (mostly for tests and
// small tooling; it allocates the full list).
func (c *CSR) Edges() []Edge {
	out := make([]Edge, 0, len(c.Targets))
	for v := 0; v < c.N; v++ {
		lo, hi := c.Offsets[v], c.Offsets[v+1]
		for i := lo; i < hi; i++ {
			e := Edge{Src: uint32(v), Dst: c.Targets[i]}
			if c.Kinds != nil {
				e.Kind = c.Kinds[i]
			}
			out = append(out, e)
		}
	}
	return out
}

// MemoryBytes estimates the heap footprint of the CSR arrays.
func (c *CSR) MemoryBytes() int64 {
	b := int64(len(c.Offsets)) * 8
	b += int64(len(c.Targets)) * 4
	b += int64(len(c.Kinds))
	return b
}

// csrCountBudget bounds the total size of the per-worker count arrays
// a build allocates (bytes). With very large vertex counts the worker
// count is reduced so W*n*8 stays under the budget; counting then runs
// on fewer cores but never touches an atomic.
const csrCountBudget = 2 << 30

// csrCountWorkers picks the number of counting/scatter workers for a
// build over n vertices and m edges.
func csrCountWorkers(n, m, workers int) int {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if workers > m {
		workers = m
	}
	if n > 0 {
		if cap := csrCountBudget / (8 * n); workers > cap {
			workers = cap
		}
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// BuildCSR builds a CSR over n vertices from an edge list, in parallel,
// without write contention and without a comparison sort. The edge list
// is scattered into unsorted rows, the rows are transposed, and the
// transpose is transposed back: a transpose walks its source rows in
// order, so every output row comes out ascending (see csrBuilder).
// Parallel edges are ordered by kind. Edges referencing vertices >= n
// cause a panic — callers (the aggregator) densify IDs first.
//
// keepKinds controls whether the per-edge kind array is retained; pure
// benchmark graphs drop it to save a byte per edge.
func BuildCSR(n int, edges []Edge, keepKinds bool, workers int) *CSR {
	fwd, _ := buildFwdRev(n, edges, keepKinds, workers)
	return fwd
}

// buildFwdRev builds a graph's CSR and the CSR of its transpose, both
// with rows ascending by (target, kind).
func buildFwdRev(n int, edges []Edge, keepKinds bool, workers int) (fwd, rev *CSR) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	cb := &csrBuilder{n: n, w: csrCountWorkers(n, len(edges), workers), workers: workers}
	scattered := cb.scatter(edges, keepKinds)
	rev = cb.transpose(scattered, nil)
	if keepKinds {
		sortKindTies(rev, workers)
	}
	// The scattered rows are dead once transposed; the final forward
	// CSR reuses their storage (its offsets are the same out-degrees).
	fwd = cb.transpose(rev, scattered)
	return fwd, rev
}

// csrBuilder runs the contention-free count / prefix / scatter passes
// every build step shares. Each of w workers owns one contiguous block
// of the input, counts the rows its block writes into a private count
// array, and a column-wise scan over those counts gives every worker a
// private cursor per output row, so the scatter writes disjoint slots
// with no atomics. Within a row, worker w's slots precede worker w+1's
// and each worker writes in input order, so the slot order is the input
// order whatever the worker count.
type csrBuilder struct {
	n, w, workers int
	counts        []int64 // w*n: counts[w*n+v], then worker w's cursor for row v
}

// scatter lays the edge list out as a CSR whose rows hold their edges
// in input order. Worker w owns edges [w*chunk, min((w+1)*chunk, m)).
func (cb *csrBuilder) scatter(edges []Edge, keepKinds bool) *CSR {
	n, m := cb.n, len(edges)
	c := &CSR{N: n, Offsets: make([]int64, n+1)}
	if m == 0 {
		return c
	}
	chunk := (m + cb.w - 1) / cb.w
	block := func(w int) []Edge { return edges[w*chunk : min((w+1)*chunk, m)] }
	cb.count(func(w int, cnt []int64) {
		for i, e := range block(w) {
			if int(e.Src) >= n || int(e.Dst) >= n {
				panic(fmt.Sprintf("graph: edge %d (%d->%d) out of range n=%d", w*chunk+i, e.Src, e.Dst, n))
			}
			cnt[e.Src]++
		}
	}, c.Offsets)
	c.Targets = make([]uint32, m)
	if keepKinds {
		c.Kinds = make([]EdgeKind, m)
	}
	par.ForEach(cb.w, cb.w, func(w int) {
		cur := cb.counts[w*n : (w+1)*n]
		for _, e := range block(w) {
			at := cur[e.Src]
			cur[e.Src] = at + 1
			c.Targets[at] = e.Dst
			if keepKinds {
				c.Kinds[at] = e.Kind
			}
		}
	})
	return c
}

// transpose returns the transpose of src, writing into dst's arrays when
// dst is non-nil (dst must have src's vertex and edge counts). Worker w
// walks a contiguous block of source rows in ascending order, so the
// sources land in every output row ascending; parallel edges keep the
// order they have in their source row. Row blocks are cut at equal edge
// counts, which balances hub-heavy graphs; the output does not depend on
// where the cuts fall.
func (cb *csrBuilder) transpose(src, dst *CSR) *CSR {
	n, m := cb.n, len(src.Targets)
	if dst == nil {
		dst = &CSR{N: n, Offsets: make([]int64, n+1)}
		if m > 0 {
			dst.Targets = make([]uint32, m)
			if src.Kinds != nil {
				dst.Kinds = make([]EdgeKind, m)
			}
		}
	}
	if m == 0 {
		return dst
	}
	rows := make([]int, cb.w+1)
	for w := 1; w < cb.w; w++ {
		rows[w], _ = slices.BinarySearch(src.Offsets[:n], int64(w)*int64(m)/int64(cb.w))
	}
	rows[cb.w] = n
	cb.count(func(w int, cnt []int64) {
		for _, t := range src.Targets[src.Offsets[rows[w]]:src.Offsets[rows[w+1]]] {
			cnt[t]++
		}
	}, dst.Offsets)
	par.ForEach(cb.w, cb.w, func(w int) {
		cur := cb.counts[w*n : (w+1)*n]
		for u := rows[w]; u < rows[w+1]; u++ {
			for i := src.Offsets[u]; i < src.Offsets[u+1]; i++ {
				t := src.Targets[i]
				at := cur[t]
				cur[t] = at + 1
				dst.Targets[at] = uint32(u)
				if dst.Kinds != nil {
					dst.Kinds[at] = src.Kinds[i]
				}
			}
		}
	})
	return dst
}

// count runs countBlock once per worker over a zeroed private count
// array, reduces the counts into offsets (length n+1) and turns every
// worker's counts into its private start cursors: worker w's slots for
// row v begin at offsets[v] + Σ_{w'<w} counts[w'][v].
func (cb *csrBuilder) count(countBlock func(w int, cnt []int64), offsets []int64) {
	n, W := cb.n, cb.w
	if cb.counts == nil {
		cb.counts = make([]int64, W*n)
	} else {
		clear(cb.counts)
	}
	par.ForEach(W, W, func(w int) { countBlock(w, cb.counts[w*n:(w+1)*n]) })
	par.ForRange(n, cb.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var t int64
			for w := 0; w < W; w++ {
				t += cb.counts[w*n+v]
			}
			offsets[v] = t
		}
	})
	offsets[n] = par.ExclusivePrefixSum64(offsets[:n])
	par.ForRange(n, cb.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			run := offsets[v]
			for w := 0; w < W; w++ {
				cw := cb.counts[w*n+v]
				cb.counts[w*n+v] = run
				run += cw
			}
		}
	})
}

// sortKindTies orders every run of equal targets in c by kind. The rows
// are already ascending by target, so the insertion step only moves an
// edge within its run and a row without parallel edges costs one pass.
func sortKindTies(c *CSR, workers int) {
	par.ForRange(c.N, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			s, e := c.Offsets[v], c.Offsets[v+1]
			for i := s + 1; i < e; i++ {
				t, k := c.Targets[i], c.Kinds[i]
				j := i
				for ; j > s && c.Targets[j-1] == t && c.Kinds[j-1] > k; j-- {
					c.Kinds[j] = c.Kinds[j-1]
				}
				c.Kinds[j] = k
			}
		}
	})
}

// ReverseEdges returns the edge list of the transposed graph. Edge kinds
// are preserved (the reversed edge keeps the kind of its forward edge so
// provenance survives transposition).
func ReverseEdges(edges []Edge) []Edge {
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = Edge{Src: e.Dst, Dst: e.Src, Kind: e.Kind}
	}
	return out
}
