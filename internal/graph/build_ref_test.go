package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refBuildCSR is the comparison-sort build the transpose build replaced:
// a serial scatter in input order, then every row sorted by (target,
// kind). It is the reference the equivalence test holds the sort-free
// build to.
func refBuildCSR(n int, edges []Edge, keepKinds bool) *CSR {
	c := &CSR{N: n, Offsets: make([]int64, n+1)}
	if len(edges) == 0 {
		return c
	}
	for _, e := range edges {
		c.Offsets[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		c.Offsets[v+1] += c.Offsets[v]
	}
	c.Targets = make([]uint32, len(edges))
	if keepKinds {
		c.Kinds = make([]EdgeKind, len(edges))
	}
	cur := append([]int64(nil), c.Offsets[:n]...)
	for _, e := range edges {
		at := cur[e.Src]
		cur[e.Src]++
		c.Targets[at] = e.Dst
		if keepKinds {
			c.Kinds[at] = e.Kind
		}
	}
	for v := 0; v < n; v++ {
		s, e := c.Offsets[v], c.Offsets[v+1]
		row := refRow{c.Targets[s:e], nil}
		if keepKinds {
			row.kinds = c.Kinds[s:e]
		}
		sort.Sort(row)
	}
	return c
}

type refRow struct {
	targets []uint32
	kinds   []EdgeKind
}

func (r refRow) Len() int { return len(r.targets) }
func (r refRow) Less(i, j int) bool {
	if r.targets[i] != r.targets[j] {
		return r.targets[i] < r.targets[j]
	}
	return r.kinds != nil && r.kinds[i] < r.kinds[j]
}
func (r refRow) Swap(i, j int) {
	r.targets[i], r.targets[j] = r.targets[j], r.targets[i]
	if r.kinds != nil {
		r.kinds[i], r.kinds[j] = r.kinds[j], r.kinds[i]
	}
}

// refHasEdge binary-searches u's sorted row for v.
func refHasEdge(c *CSR, u, v uint32) bool {
	adj := c.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// refBidirected is the build the merge pairing replaced: two sorted
// builds (the graph and its reversed edge list) and a binary search per
// edge for its reciprocal.
func refBidirected(n int, edges []Edge, keepKinds bool) *Bidirected {
	fwd := refBuildCSR(n, edges, keepKinds)
	rev := refBuildCSR(n, ReverseEdges(edges), keepKinds)
	b := &Bidirected{
		Fwd:        fwd,
		Rev:        rev,
		FwdPaired:  make([]uint8, fwd.NumEdges()),
		RevPaired:  make([]uint8, rev.NumEdges()),
		PairedIn:   make([]int32, n),
		UnpairedIn: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		u := uint32(v)
		s, e := fwd.EdgeRange(u)
		for i := s; i < e; i++ {
			if refHasEdge(fwd, fwd.Targets[i], u) {
				b.FwdPaired[i] = 1
			}
		}
		s, e = rev.EdgeRange(u)
		for i := s; i < e; i++ {
			if refHasEdge(fwd, u, rev.Targets[i]) {
				b.RevPaired[i] = 1
				b.PairedIn[v]++
			} else {
				b.UnpairedIn[v]++
			}
		}
	}
	return b
}

// hubMultigraph draws a random multigraph with the shapes that stress
// the build: a few hub vertices holding rows longer than any insertion
// sort, self-loops, runs of parallel edges of mixed kinds, reciprocal
// edges, and isolated vertices.
func hubMultigraph(r *rand.Rand) (int, []Edge) {
	n := 1 + r.Intn(300)
	m := r.Intn(4000)
	hubs := []uint32{uint32(r.Intn(n)), uint32(r.Intn(n)), uint32(r.Intn(n))}
	vertex := func() uint32 {
		if r.Intn(3) == 0 {
			return hubs[r.Intn(len(hubs))]
		}
		return uint32(r.Intn(n))
	}
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		e := Edge{Src: vertex(), Dst: vertex(), Kind: EdgeKind(r.Intn(5))}
		switch r.Intn(8) {
		case 0:
			e.Dst = e.Src
		case 1, 2:
			if len(edges) > 0 {
				e.Src, e.Dst = edges[len(edges)-1].Src, edges[len(edges)-1].Dst
			}
		case 3:
			if len(edges) > 0 {
				e.Src, e.Dst = edges[len(edges)-1].Dst, edges[len(edges)-1].Src
			}
		}
		edges = append(edges, e)
	}
	return n, edges
}

// TestBuildMatchesSortedReference: the sort-free build and merge pairing
// produce byte-identical CSRs, pairing flags and in-counts to the
// comparison-sort build with per-edge binary-search pairing, typed and
// untyped, at every worker count.
func TestBuildMatchesSortedReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		n, edges := hubMultigraph(rand.New(rand.NewSource(seed)))
		for _, typed := range []bool{true, false} {
			want := refBidirected(n, edges, typed)
			for _, w := range []int{1, 2, 3, 8} {
				name := fmt.Sprintf("seed=%d typed=%v workers=%d", seed, typed, w)
				got := NewBidirectedUntyped(n, edges, w)
				if typed {
					got = NewBidirected(n, edges, w)
				}
				assertSameBidirected(t, name, got, want)
				assertSameCSR(t, name+" BuildCSR", BuildCSR(n, edges, typed, w), want.Fwd)
			}
		}
	}
}

func assertSameCSR(t *testing.T, name string, got, want *CSR) {
	t.Helper()
	if got.N != want.N ||
		!reflect.DeepEqual(got.Offsets, want.Offsets) ||
		!reflect.DeepEqual(got.Targets, want.Targets) ||
		!reflect.DeepEqual(got.Kinds, want.Kinds) {
		t.Fatalf("%s: CSR differs from the sorted reference", name)
	}
}

func assertSameBidirected(t *testing.T, name string, got, want *Bidirected) {
	t.Helper()
	assertSameCSR(t, name+" Fwd", got.Fwd, want.Fwd)
	assertSameCSR(t, name+" Rev", got.Rev, want.Rev)
	for _, f := range []struct {
		field     string
		got, want any
	}{
		{"FwdPaired", got.FwdPaired, want.FwdPaired},
		{"RevPaired", got.RevPaired, want.RevPaired},
		{"PairedIn", got.PairedIn, want.PairedIn},
		{"UnpairedIn", got.UnpairedIn, want.UnpairedIn},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differs from the reference", name, f.field)
		}
	}
}
