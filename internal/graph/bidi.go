package graph

import (
	"faultyrank/internal/par"
)

// Bidirected bundles a metadata graph with its transpose plus the
// paired/unpaired status of every edge. This is the input shape of the
// FaultyRank iteration: phase A (ID ranks) pulls over Rev, phase B
// (Property ranks) pulls over Fwd with unpaired edges down-weighted.
type Bidirected struct {
	Fwd *CSR // the metadata graph G
	Rev *CSR // the transposed graph G_R

	// FwdPaired[i] is 1 when forward edge i (indexing Fwd.Targets) has a
	// reciprocal edge in G; RevPaired likewise for Rev. An edge u->v is
	// paired iff v->u exists (§II-A: every point-to should be answered
	// by a point-back).
	FwdPaired []uint8
	RevPaired []uint8

	// PairedIn/UnpairedIn count, per vertex, its paired and unpaired
	// incoming forward edges. They equal the paired/unpaired out-degree
	// in G_R, which the rank kernel needs to normalise the weighted
	// distribution (§III-D) without baking a weight constant in here.
	PairedIn   []int32
	UnpairedIn []int32
}

// NewBidirected builds both CSR orientations and classifies every edge as
// paired or unpaired, all in parallel.
func NewBidirected(n int, edges []Edge, workers int) *Bidirected {
	return newBidirected(n, edges, true, workers)
}

// NewBidirectedUntyped is NewBidirected for kind-less benchmark graphs;
// it skips the per-edge kind arrays (one byte per edge per orientation).
func NewBidirectedUntyped(n int, edges []Edge, workers int) *Bidirected {
	return newBidirected(n, edges, false, workers)
}

// newBidirected builds Fwd and Rev, then classifies pairing with one
// merge per vertex: Fwd[v] holds v's out-neighbours and Rev[v] its
// in-neighbours, both ascending, and forward edge v->t is paired iff t
// is also an in-neighbour (t->v exists), while reversed edge v->s is
// paired iff s is also an out-neighbour (v->s exists). Every write
// lands in v's own rows, so vertex shards never race.
func newBidirected(n int, edges []Edge, keepKinds bool, workers int) *Bidirected {
	fwd, rev := buildFwdRev(n, edges, keepKinds, workers)
	b := &Bidirected{
		Fwd:        fwd,
		Rev:        rev,
		FwdPaired:  make([]uint8, fwd.NumEdges()),
		RevPaired:  make([]uint8, rev.NumEdges()),
		PairedIn:   make([]int32, n),
		UnpairedIn: make([]int32, n),
	}
	par.ForRange(n, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			i, fe := fwd.EdgeRange(uint32(v))
			j, re := rev.EdgeRange(uint32(v))
			var paired int32
			for i < fe && j < re {
				x, y := fwd.Targets[i], rev.Targets[j]
				switch {
				case x < y:
					i++
				case x > y:
					j++
				default:
					for ; i < fe && fwd.Targets[i] == x; i++ {
						b.FwdPaired[i] = 1
					}
					for ; j < re && rev.Targets[j] == x; j++ {
						b.RevPaired[j] = 1
						paired++
					}
				}
			}
			b.PairedIn[v] = paired
			b.UnpairedIn[v] = int32(rev.Degree(uint32(v))) - paired
		}
	})
	return b
}

// N returns the vertex count.
func (b *Bidirected) N() int { return b.Fwd.N }

// OutDegree returns v's out-degree in G.
func (b *Bidirected) OutDegree(v uint32) int { return b.Fwd.Degree(v) }

// InDegree returns v's in-degree in G.
func (b *Bidirected) InDegree(v uint32) int { return b.Rev.Degree(v) }

// HasUnpairedEdge reports whether v touches at least one unpaired edge in
// either direction; such vertices form the paper's S_chk candidate set.
func (b *Bidirected) HasUnpairedEdge(v uint32) bool {
	if b.UnpairedIn[v] > 0 {
		return true
	}
	s, e := b.Fwd.EdgeRange(v)
	for i := s; i < e; i++ {
		if b.FwdPaired[i] == 0 {
			return true
		}
	}
	return false
}

// UnpairedOut returns the distinct targets of v's unpaired out-edges.
func (b *Bidirected) UnpairedOut(v uint32) []uint32 {
	var out []uint32
	s, e := b.Fwd.EdgeRange(v)
	for i := s; i < e; i++ {
		if b.FwdPaired[i] == 0 {
			t := b.Fwd.Targets[i]
			if len(out) == 0 || out[len(out)-1] != t {
				out = append(out, t)
			}
		}
	}
	return out
}

// UnpairedIncoming returns the distinct sources of v's unpaired in-edges.
func (b *Bidirected) UnpairedIncoming(v uint32) []uint32 {
	var out []uint32
	s, e := b.Rev.EdgeRange(v)
	for i := s; i < e; i++ {
		if b.RevPaired[i] == 0 {
			t := b.Rev.Targets[i]
			if len(out) == 0 || out[len(out)-1] != t {
				out = append(out, t)
			}
		}
	}
	return out
}

// Stats computes summary statistics in parallel.
func (b *Bidirected) Stats(workers int) Stats {
	n := b.N()
	st := Stats{Vertices: n, Edges: b.Fwd.NumEdges()}
	type partial struct {
		paired, unpaired int64
		sinks, sources   int
	}
	parts := make([]partial, 0, 64)
	// Single sequential pass over vertices is fine for stats, but reuse
	// the chunked reduction for large graphs.
	workersN := workers
	if workersN <= 0 {
		workersN = par.DefaultWorkers()
	}
	if workersN > n {
		workersN = n
	}
	if workersN < 1 {
		workersN = 1
	}
	chunk := (n + workersN - 1) / workersN
	for lo := 0; lo < n; lo += chunk {
		parts = append(parts, partial{})
	}
	par.ForRange(n, workersN, func(lo, hi int) {
		slot := lo / chunk
		var p partial
		for v := lo; v < hi; v++ {
			u := uint32(v)
			s, e := b.Fwd.EdgeRange(u)
			if s == e {
				p.sinks++
			}
			if b.Rev.Degree(u) == 0 {
				p.sources++
			}
			for i := s; i < e; i++ {
				if b.FwdPaired[i] == 1 {
					p.paired++
				} else {
					p.unpaired++
				}
			}
		}
		parts[slot] = p
	})
	for _, p := range parts {
		st.PairedEdges += p.paired
		st.UnpairedEdges += p.unpaired
		st.Sinks += p.sinks
		st.Sources += p.sources
	}
	return st
}

// MemoryBytes estimates the total footprint of the bidirected structure,
// reported in the paper's Tables IV and V.
func (b *Bidirected) MemoryBytes() int64 {
	m := b.Fwd.MemoryBytes() + b.Rev.MemoryBytes()
	m += int64(len(b.FwdPaired)) + int64(len(b.RevPaired))
	m += int64(len(b.PairedIn))*4 + int64(len(b.UnpairedIn))*4
	return m
}
