package core

import (
	"faultyrank/internal/graph"
	"faultyrank/internal/par"
)

// Result holds the converged credibility scores of a FaultyRank run.
// IDRank and PropRank are on the paper's scale: every vertex starts at
// 1.0 and total mass N is conserved, so a "healthy" score hovers near
// 1.0 and a fault collapses toward 0.
type Result struct {
	IDRank   []float64
	PropRank []float64

	Iterations int
	Converged  bool
	// Diffs records the max-abs ID-rank change after each iteration
	// (the convergence trace; useful for the ablation benches).
	Diffs []float64
	// Trace is the detailed per-iteration record — populated only when
	// Options.ConvergenceTrace is set, and capped at Options.TraceCap
	// entries (DefaultTraceCap when unset). Values are worker-count
	// insensitive up to float summation order, like the ranks themselves.
	Trace []IterStats
	// Frontier records what RunIncremental touched; nil for Run, for
	// RunPartitioned, and for RunIncremental calls without warm state.
	Frontier *FrontierStats
}

// IterStats is one iteration's convergence record.
type IterStats struct {
	// MaxDelta is the max-abs ID-rank change this iteration, on the
	// unsmoothed scale Epsilon is compared against (same as Diffs).
	MaxDelta float64 `json:"max_delta"`
	// SinkMassID is the dangling mass redistributed in phase A, the
	// sweep that produces the ID ranks.
	SinkMassID float64 `json:"sink_mass_id"`
	// SinkMassProp is the dangling mass redistributed in phase B, the
	// sweep that produces the property ranks.
	SinkMassProp float64 `json:"sink_mass_prop"`
}

// NormalizedID returns IDRank divided by N, the sum-to-one presentation
// used by Table II of the paper.
func (r *Result) NormalizedID() []float64 { return normalized(r.IDRank) }

// NormalizedProp returns PropRank divided by N (see NormalizedID).
func (r *Result) NormalizedProp() []float64 { return normalized(r.PropRank) }

func normalized(xs []float64) []float64 {
	n := float64(len(xs))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / n
	}
	return out
}

// record appends one finished iteration to the convergence series:
// diff on the unsmoothed Epsilon scale (Options.unsmoothed), massA and
// massB the sink masses phases A and B redistributed. It then reports
// the iteration to Options.OnIteration.
func (r *Result) record(opt Options, diff, massA, massB float64) {
	r.Diffs = append(r.Diffs, diff)
	if opt.ConvergenceTrace && len(r.Trace) < opt.traceCap() {
		r.Trace = append(r.Trace, IterStats{
			MaxDelta:     diff,
			SinkMassID:   massA,
			SinkMassProp: massB,
		})
	}
	r.Iterations++
	if opt.OnIteration != nil {
		opt.OnIteration(r.Iterations, diff)
	}
}

// Run executes the FaultyRank iterative algorithm (paper Alg. 1) on a
// bidirected metadata graph. Each iteration runs the sweeper's phase A
// (ID ranks, over G) and phase B (Prop ranks, over Gᵣ) over every
// vertex (see sweeper for the equations); iteration stops when the
// max-abs ID-rank change falls below Epsilon. Sink mass is
// redistributed according to Options.SinkPolicy. Run is the always-full
// case of RunIncremental's frontier loop.
func Run(b *graph.Bidirected, opt Options) *Result {
	return iterate(b, opt, &frontier{full: true})
}

// iterate is the single-process iteration loop behind Run and
// RunIncremental; fr picks the rows each phase recomputes.
func iterate(b *graph.Bidirected, opt Options, fr *frontier) *Result {
	n := b.N()
	res := &Result{}
	res.IDRank, res.PropRank = seedRanks(n, opt)
	if n == 0 {
		res.Converged = true
		return res
	}
	workers := opt.workers()
	sw := graphSweeper(b, opt)
	id, prop := res.IDRank, res.PropRank
	// sinksA sums prop over phase-A sinks; sinksB sums id over phase-B
	// sinks. A phase marks the blocks it rewrote stale in the other's.
	sinksA, sinksB := newSinkCache(sw.invOut), newSinkCache(sw.invW)

	for iter := 0; iter < opt.MaxIterations; iter++ {
		fr.saturate()

		massA := sinksA.sum(prop, workers)
		baseA, perSinkA := sinkShares(massA, n, opt.SinkPolicy)
		rows := fr.rows(0, baseA)
		maxD := sw.phaseA(id, prop, rows, baseA, perSinkA, fr.delta)
		fr.advance(0, rows, b.Rev, sinksB)

		massB := sinksB.sum(id, workers)
		baseB, perSinkB := sinkShares(massB, n, opt.SinkPolicy)
		rows = fr.rows(1, baseB)
		sw.phaseB(id, prop, rows, baseB, perSinkB, fr.delta)
		fr.advance(1, rows, b.Fwd, sinksA)

		diff := opt.unsmoothed(maxD)
		res.record(opt, diff, massA, massB)
		if fr.settle(diff < opt.Epsilon) {
			res.Converged = true
			break
		}
	}
	return res
}

// seedRanks returns the initial rank vectors: 1.0 per vertex (paper
// §III-C), or the caller's warm seed (Options.InitialID/InitialProp)
// when its length is n — a stale length means the graph changed shape.
// Seeds are rescaled to total mass N, the invariant the uniform start
// establishes and the iteration conserves: a seed assembled from a
// different graph's ranks carries the wrong total, and would converge
// to an off-mass scale while the slow mass-redistribution modes crawl.
func seedRanks(n int, opt Options) (id, prop []float64) {
	seed := func(warm []float64) []float64 {
		out := make([]float64, n)
		if len(warm) == n {
			copy(out, warm)
			rescaleMass(out)
			return out
		}
		for i := range out {
			out[i] = 1
		}
		return out
	}
	return seed(opt.InitialID), seed(opt.InitialProp)
}

// rescaleMass scales xs so it sums to len(xs), the mass-N scale of the
// uniform start. A non-positive sum (degenerate seed) falls back to
// uniform 1.0.
func rescaleMass(xs []float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum <= 0 {
		for i := range xs {
			xs[i] = 1
		}
		return
	}
	scale := float64(len(xs)) / sum
	for i := range xs {
		xs[i] *= scale
	}
}

// sinkBlock is the fixed width of the canonical sink-mass summation
// blocks. Float64 addition is not associative, so the fold order IS the
// definition of the sum: per-block partials accumulate sequentially in
// ascending vertex order, and the partials fold sequentially in
// ascending block order. That order depends only on the vertex
// numbering — never on the worker count or on how the vertices are
// partitioned — which is what lets the distributed coordinator
// (superstep.go) reproduce the single-process ranks bit for bit.
const sinkBlock = 1 << 12

// sinkBlockSum is one block's partial of the canonical sink-mass sum:
// sequential, ascending vertex order within the block.
func sinkBlockSum(rank, invDiv []float64, blk int) float64 {
	s := blk * sinkBlock
	e := min(s+sinkBlock, len(rank))
	var acc float64
	for i := s; i < e; i++ {
		if invDiv[i] == 0 {
			acc += rank[i]
		}
	}
	return acc
}

// sinkCache holds one phase's canonical sink-mass partials, one per
// sinkBlock, and the blocks whose partial went stale since the last sum.
// Recomputing a whole stale block sequentially is bit-identical to a
// fresh partial, so a frontier that rewrote a few vertices pays for a
// few blocks while the fold stays canonical.
type sinkCache struct {
	invDiv []float64 // a zero divisor marks a sink
	part   []float64
	stale  *vertSet // blocks whose partial is out of date
	all    bool     // every block is out of date
}

// newSinkCache starts with every block stale.
func newSinkCache(invDiv []float64) *sinkCache {
	nb := (len(invDiv) + sinkBlock - 1) / sinkBlock
	return &sinkCache{invDiv: invDiv, part: make([]float64, nb), stale: newVertSet(nb), all: true}
}

// touch marks the block of a rewritten vertex stale.
func (c *sinkCache) touch(v uint32) {
	if !c.all {
		c.stale.mark(v / sinkBlock)
	}
}

// sum refreshes the stale partials from rank, in parallel, and folds all
// partials in ascending block order. With every block stale it is the
// full canonical sum.
func (c *sinkCache) sum(rank []float64, workers int) float64 {
	if c.all {
		par.ForRange(len(c.part), workers, func(lo, hi int) {
			for blk := lo; blk < hi; blk++ {
				c.part[blk] = sinkBlockSum(rank, c.invDiv, blk)
			}
		})
	} else {
		blks := c.stale.list
		par.ForRange(len(blks), workers, func(lo, hi int) {
			for _, blk := range blks[lo:hi] {
				c.part[blk] = sinkBlockSum(rank, c.invDiv, int(blk))
			}
		})
	}
	c.stale.clear()
	c.all = false
	var sum float64
	for _, p := range c.part {
		sum += p
	}
	return sum
}

// sinkShares converts total sink mass into the per-vertex additive base
// and, for SinkToOthers, the per-sink self-exclusion factor.
func sinkShares(mass float64, n int, policy SinkPolicy) (base, perSink float64) {
	if mass == 0 {
		return 0, 0
	}
	switch policy {
	case SinkToAll:
		return mass / float64(n), 0
	case SinkDrop:
		return 0, 0
	default: // SinkToOthers
		if n <= 1 {
			return 0, 0
		}
		per := 1 / float64(n-1)
		return mass * per, per
	}
}
