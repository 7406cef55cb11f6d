package core

import (
	"math"

	"faultyrank/internal/graph"
)

// FrontierStats records what RunIncremental actually recomputed — the
// evidence that a delta check paid O(frontier), not O(graph), per
// iteration. Touched is the headline number: the cold kernel would have
// touched 2·N·Iterations vertices.
type FrontierStats struct {
	// Seeds is the number of dirty vertices the frontier was seeded from.
	Seeds int `json:"seeds"`
	// FullSweeps counts full O(N) phase sweeps (a cold-equivalent
	// iteration is two). The verification sweep that confirms
	// convergence always contributes at least two.
	FullSweeps int `json:"full_sweeps"`
	// MaxActive is the largest frontier a non-full phase processed.
	MaxActive int `json:"max_active"`
	// Touched is the total number of per-vertex equation evaluations
	// across all phases of the run (full sweeps included).
	Touched int64 `json:"touched"`
	// Saturated reports that the frontier grew past
	// Options.FrontierSaturation·N and the run fell back to full sweeps.
	Saturated bool `json:"saturated"`
}

// vertSet is an O(1)-membership set with a dense iteration list, of
// vertices or of sink blocks. Marking is sequential; the list is
// consumed by parallel kernels (reads only). Order of the list never
// affects results: phase updates write disjoint vertices, the max-delta
// reduction is order-independent and block partials are independent.
// The list is never nil, since a nil row list means "every row" to the
// sweeper.
type vertSet struct {
	in   []bool
	list []uint32
}

func newVertSet(n int) *vertSet { return &vertSet{in: make([]bool, n), list: []uint32{}} }

func (s *vertSet) mark(v uint32) {
	if !s.in[v] {
		s.in[v] = true
		s.list = append(s.list, v)
	}
}

func (s *vertSet) clear() {
	for _, v := range s.list {
		s.in[v] = false
	}
	s.list = s.list[:0]
}

// frontier decides which rows each phase of the iteration loop
// recomputes. Phase 0 is A, phase 1 is B. A full frontier (Run, or a
// saturated incremental run) sweeps every row and tracks nothing.
type frontier struct {
	st     FrontierStats
	n      int
	theta  float64 // propagation bound on the raw rank scale
	satCap int

	full     bool        // sweep every row for the rest of the run
	verify   bool        // the next iteration is the verification sweep
	haveBase bool        // prevBase holds the previous iteration's bases
	prevBase [2]float64  // per phase: the last redistribution base
	swept    [2]bool     // per phase: this iteration swept every row
	cur      [2]*vertSet // per phase: the rows to recompute next
	delta    []float64   // per row: the signed Δ of its last rewrite
}

// RunIncremental executes the FaultyRank iteration recomputing only the
// equations that can have changed: it seeds an active set from the dirty
// vertices (those whose cached contribution changed in the delta) and
// their neighbours in both orientations — every equation that reads a
// changed adjacency list, out-degree, or in-weight — then expands the
// set along dependency edges while per-vertex movement exceeds a bound
// derived from Epsilon (Options.FrontierSlack). Vertices outside the
// active set keep their warm values untouched.
//
// Exactness is restored at the end: convergence is only declared after a
// full verification sweep (a bit-exact cold iteration) whose diff is
// below Epsilon, so a converged incremental result satisfies the cold
// kernel's criterion on the whole graph, not just the frontier. Sink
// mass keeps the canonical sinkBlock fold through sinkCache, so results
// stay deterministic for any worker count.
//
// The dirty slice holds vertex IDs (GIDs) in [0, N); out-of-range
// entries are ignored. RunIncremental needs valid warm vectors to be
// incremental against — without them (or with Smoothing >= 1, or an
// empty graph) it delegates to Run, returning a nil Frontier.
func RunIncremental(b *graph.Bidirected, opt Options, dirty []uint32) *Result {
	n := b.N()
	if n == 0 || opt.Smoothing >= 1 || len(opt.InitialID) != n || len(opt.InitialProp) != n {
		return Run(b, opt)
	}
	fr := &frontier{
		n: n,
		// Diffs divide by blend before the Epsilon comparison, so the
		// comparable per-write bound scales back.
		theta:  opt.Epsilon * opt.frontierSlack() * (1 - opt.Smoothing),
		satCap: n,
		cur:    [2]*vertSet{newVertSet(n), newVertSet(n)},
		delta:  make([]float64, n),
	}
	if f := opt.frontierSaturation(); f < 1 {
		fr.satCap = int(f * float64(n))
	}
	// Seed: a dirty vertex's own equations changed (its adjacency lists
	// and divisors are new), and so did every equation multiplying its
	// divisors or reading its (re)moved edges — its neighbours in either
	// orientation. Marking the full two-sided union into both phases is
	// slightly generous but always sound.
	seeded := newVertSet(n)
	for _, d := range dirty {
		if int(d) < n {
			seeded.mark(d)
		}
	}
	fr.st.Seeds = len(seeded.list)
	for _, d := range seeded.list {
		for _, set := range fr.cur {
			set.mark(d)
			for _, u := range b.Fwd.Neighbors(d) {
				set.mark(u)
			}
			for _, u := range b.Rev.Neighbors(d) {
				set.mark(u)
			}
		}
	}
	res := iterate(b, opt, fr)
	res.Frontier = &fr.st
	return res
}

// saturate switches to full sweeps for the rest of the run once either
// phase's frontier outgrows the saturation cap: past that point the
// bookkeeping costs more than it skips.
func (f *frontier) saturate() {
	if !f.full && (len(f.cur[0].list) > f.satCap || len(f.cur[1].list) > f.satCap) {
		f.full = true
		f.st.Saturated = true
	}
}

// rows returns the rows phase p recomputes this iteration: its frontier,
// or nil (every row) when saturated, verifying, or when the phase's
// redistribution base moved by more than theta — a shifted base moves
// *every* equation, not just the frontier's.
func (f *frontier) rows(p int, base float64) []uint32 {
	shifted := f.haveBase && math.Abs(base-f.prevBase[p]) > f.theta
	f.prevBase[p] = base
	f.swept[p] = f.full || f.verify || shifted
	if f.swept[p] {
		f.st.FullSweeps++
		f.st.Touched += int64(f.n)
		return nil
	}
	rows := f.cur[p].list
	f.st.MaxActive = max(f.st.MaxActive, len(rows))
	f.st.Touched += int64(len(rows))
	return rows
}

// advance retires phase p's rows after the sweep rewrote them. It marks
// their sink blocks stale in the other phase's cache (stale), then
// re-activates, in the other phase's frontier, the dependents of rows
// that moved more than theta. dep lists the consumers of the written
// value: after phase A (id changed) that is Rev targets — the sources
// of edges into v, whose phase-B gathers read id[v] — and after phase B
// (prop changed) it is Fwd targets, whose phase-A gathers read prop[v].
// The vertex itself is re-marked too: its own next-phase equation reads
// the written value through the sink self-exclusion terms, and cheap
// over-marking is always sound. Sequential by design: set marking is
// not race-safe.
func (f *frontier) advance(p int, rows []uint32, dep *graph.CSR, stale *sinkCache) {
	if rows == nil {
		stale.all = true
	}
	if f.full {
		return
	}
	f.cur[p].clear()
	next := f.cur[1-p]
	activate := func(v uint32) {
		stale.touch(v)
		if math.Abs(f.delta[v]) > f.theta {
			next.mark(v)
			for _, u := range dep.Neighbors(v) {
				next.mark(u)
			}
		}
	}
	if rows == nil {
		for v := 0; v < f.n; v++ {
			activate(uint32(v))
		}
		return
	}
	for _, v := range rows {
		activate(v)
	}
}

// settle reports whether the iteration just finished ends the run: it
// was quiet (diff below Epsilon) and both phases swept every row, so the
// cold stopping criterion holds exactly. When the frontier went quiet
// but vertices outside it were never checked, the next iteration is a
// full verification sweep; if that sweep still moves somewhere, its
// propagation re-seeds the frontier and the loop continues
// incrementally.
func (f *frontier) settle(quiet bool) bool {
	if quiet && f.swept[0] && f.swept[1] {
		return true
	}
	f.verify = quiet
	f.haveBase = true
	return false
}
