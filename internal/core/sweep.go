package core

import (
	"math"
	"sync"

	"faultyrank/internal/graph"
	"faultyrank/internal/par"
)

// sweeper is the one implementation of the two gathers of paper Alg. 1,
// shared by Run, RunIncremental and the partition worker:
//
//	Phase A (ID ranks, over G):   id'[u]   = Σ_{v→u∈G} prop[v]/outdeg(v)
//	Phase B (Prop ranks, over Gᵣ): prop'[u] = Σ_{u→v∈G} id'[v]·w(u→v)/W(v)
//
// where w is 1 for paired edges and Options.UnpairedWeight for unpaired
// ones, and W(v) is the total weight of v's reversed-graph out-edges
// (§III-D's weighted distribution). Both phases are pull-style gathers
// over a CSR row view: rows [0, rows) index the vertices being updated,
// columns index the rank vectors. A whole graph has one column per row;
// a partition's ghost columns sit above its local rows.
//
// Updates are in place and still exact: phase A writes only id[v] and
// reads prop plus its own id[v]; phase B is the mirror image. Each row's
// arithmetic is sequential in CSR order, so results do not depend on the
// worker count or on how the rows are split into partitions.
type sweeper struct {
	rows int

	// Phase A rows list in-neighbour columns (the reversed CSR); phase
	// B rows list out-neighbour columns, with paired[i] = 1 when edge i
	// has its point-back.
	revOff []int64
	revCol []uint32
	fwdOff []int64
	fwdCol []uint32
	paired []uint8

	invOut []float64 // per column: 1/outdeg, 0 for phase-A sinks
	invW   []float64 // per column: 1/W(v), 0 for phase-B sinks

	sigma, blend, unpaired float64
	workers                int
}

// divisors returns one vertex's inverse phase divisors:
//
//	invOut = 1/outdeg_G(v), 0 for sinks: phase A divisor.
//	invW   = 1/W(v) with W(v) = paired_in(v) + w·unpaired_in(v),
//	         0 when v has no in-edges (a reversed-graph sink).
//
// A zero divisor is what makes a vertex a sink of that phase, both in
// the sweeps and in the coordinator's sink-mass fold.
func divisors(outDeg, pairedIn, unpairedIn int, opt Options) (invOut, invW float64) {
	if outDeg > 0 {
		invOut = 1 / float64(outDeg)
	}
	if opt.LeakyDistribution {
		// Ablation: divide by the raw in-degree; unpaired edges leak
		// (1 - UnpairedWeight) of their share.
		if d := pairedIn + unpairedIn; d > 0 {
			invW = 1 / float64(d)
		}
	} else {
		w := float64(pairedIn) + opt.UnpairedWeight*float64(unpairedIn)
		if w > 0 {
			invW = 1 / w
		}
	}
	return invOut, invW
}

// newSweeper fills the per-column divisors from degree metadata; the
// caller sets the row view.
func newSweeper(opt Options, rows, cols int, degrees func(c int) (outDeg, pairedIn, unpairedIn int)) *sweeper {
	s := &sweeper{
		rows:     rows,
		invOut:   make([]float64, cols),
		invW:     make([]float64, cols),
		sigma:    opt.Smoothing,
		blend:    1 - opt.Smoothing,
		unpaired: opt.UnpairedWeight,
		workers:  opt.workers(),
	}
	par.ForRange(cols, s.workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			out, pin, uin := degrees(c)
			s.invOut[c], s.invW[c] = divisors(out, pin, uin, opt)
		}
	})
	return s
}

func graphSweeper(b *graph.Bidirected, opt Options) *sweeper {
	s := newSweeper(opt, b.N(), b.N(), func(v int) (int, int, int) {
		return b.Fwd.Degree(uint32(v)), int(b.PairedIn[v]), int(b.UnpairedIn[v])
	})
	s.revOff, s.revCol = b.Rev.Offsets, b.Rev.Targets
	s.fwdOff, s.fwdCol, s.paired = b.Fwd.Offsets, b.Fwd.Targets, b.FwdPaired
	return s
}

func subSweeper(sub *graph.SubGraph, opt Options) *sweeper {
	s := newSweeper(opt, sub.NLocal(), sub.NCols(), func(c int) (int, int, int) {
		return int(sub.OutDeg[c]), int(sub.PairedIn[c]), int(sub.UnpairedIn[c])
	})
	s.revOff, s.revCol = sub.RevOff, sub.RevCol
	s.fwdOff, s.fwdCol, s.paired = sub.FwdOff, sub.FwdCol, sub.FwdPaired
	return s
}

// phaseA gathers property mass along forward edges (pull form: each
// row's in-neighbours via the reversed CSR) into id, in place, for the
// given rows — every row when rows is nil. base and perSink are the
// sinkShares of the phase's sink mass. It returns max |Δ id| over the
// rows and, when delta is non-nil, stores each row's signed Δ there.
func (s *sweeper) phaseA(id, prop []float64, rows []uint32, base, perSink float64, delta []float64) float64 {
	return s.each(rows, func(lo, hi int) float64 {
		return s.gatherA(id, prop, rows, lo, hi, base, perSink, delta)
	})
}

// phaseB gathers ID mass along reversed edges (pull form: a row's
// in-neighbours in Gᵣ are its out-neighbours in G; the edge weight
// depends on whether the edge is paired) into prop, in place. Rows,
// shares, result and delta are as for phaseA.
func (s *sweeper) phaseB(id, prop []float64, rows []uint32, base, perSink float64, delta []float64) float64 {
	return s.each(rows, func(lo, hi int) float64 {
		return s.gatherB(id, prop, rows, lo, hi, base, perSink, delta)
	})
}

// gatherA is phase A over row positions [lo, hi). The slice headers are
// hoisted into locals: read through s, they would be reloaded after
// every id store.
func (s *sweeper) gatherA(id, prop []float64, rows []uint32, lo, hi int, base, perSink float64, delta []float64) (maxD float64) {
	off, col, inv := s.revOff, s.revCol, s.invOut
	sigma, blend := s.sigma, s.blend
	for k := lo; k < hi; k++ {
		v := k
		if rows != nil {
			v = int(rows[k])
		}
		acc := base
		for i, e := off[v], off[v+1]; i < e; i++ {
			src := col[i]
			acc += prop[src] * inv[src]
		}
		if perSink != 0 && inv[v] == 0 {
			// SinkToOthers: a sink does not credit itself.
			acc -= prop[v] * perSink
		}
		nv := sigma*id[v] + blend*acc
		d := nv - id[v]
		id[v] = nv
		if delta != nil {
			delta[v] = d
		}
		if d = math.Abs(d); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// gatherB is phase B over row positions [lo, hi); see gatherA.
func (s *sweeper) gatherB(id, prop []float64, rows []uint32, lo, hi int, base, perSink float64, delta []float64) (maxD float64) {
	off, col, paired, inv := s.fwdOff, s.fwdCol, s.paired, s.invW
	sigma, blend, unpaired := s.sigma, s.blend, s.unpaired
	for k := lo; k < hi; k++ {
		v := k
		if rows != nil {
			v = int(rows[k])
		}
		acc := base
		for i, e := off[v], off[v+1]; i < e; i++ {
			dst := col[i]
			w := unpaired
			if paired[i] == 1 {
				w = 1
			}
			acc += id[dst] * w * inv[dst]
		}
		if perSink != 0 && inv[v] == 0 {
			acc -= id[v] * perSink
		}
		nv := sigma*prop[v] + blend*acc
		d := nv - prop[v]
		prop[v] = nv
		if delta != nil {
			delta[v] = d
		}
		if d = math.Abs(d); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// each runs sweep over the row positions [0, len(rows)) — [0, s.rows)
// when rows is nil — in parallel chunks and returns the largest chunk
// result. Max is order-insensitive, so the result is deterministic.
func (s *sweeper) each(rows []uint32, sweep func(lo, hi int) float64) float64 {
	n := s.rows
	if rows != nil {
		n = len(rows)
	}
	var (
		mu   sync.Mutex
		maxD float64
	)
	par.ForRange(n, s.workers, func(lo, hi int) {
		d := sweep(lo, hi)
		mu.Lock()
		if d > maxD {
			maxD = d
		}
		mu.Unlock()
	})
	return maxD
}
