package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/rmat"
)

// rankRMAT is rank-rmat: FaultyRank alone on a Graph500 R-MAT graph,
// from the edge list to the detection report (paper Table IV).
type rankRMAT struct {
	workers int
	n       int
	edges   []graph.Edge
	// ref is the first check's output; every later check must match it
	// bit for bit.
	ref *rmatOutput
}

// rmatOutput is what one rank-rmat check produces.
type rmatOutput struct {
	iterations int
	converged  bool
	ranks      string // digest of the rank vectors' bits
	report     string // digest of the detection report
	mass       float64
}

func (r *rankRMAT) setup(e env) error {
	r.workers = e.Workers
	p := rmat.Graph500(e.Sizes.RMATScale, 8, e.Seed)
	r.n = p.NumVertices()
	r.edges = rmat.Generate(p, e.Workers)
	return nil
}

func (r *rankRMAT) prepare() error { return nil }

// check is one timed rank-rmat check.
func (r *rankRMAT) check() (*graph.Bidirected, *core.Result, *core.Report) {
	opt := core.DefaultOptions()
	b := graph.NewBidirectedUntyped(r.n, r.edges, r.workers)
	res := core.Run(b, opt)
	return b, res, core.Detect(b, res, nil, opt)
}

func (r *rankRMAT) round() (roundTimes, error) {
	t0 := time.Now()
	_, res, rep := r.check()
	t := roundTimes{check: time.Since(t0)}
	return t, r.verify(summarize(res, rep))
}

// verify compares one check's output with the first check's. The rank
// vectors must be bit-identical, reached in the same iteration count,
// and conserve the total rank mass N.
func (r *rankRMAT) verify(out *rmatOutput) error {
	if !out.converged {
		return fmt.Errorf("did not converge in %d iterations", out.iterations)
	}
	if math.Abs(out.mass-float64(r.n)) > 1e-6*float64(r.n) {
		return fmt.Errorf("rank mass %.9g, want %d", out.mass, r.n)
	}
	if r.ref == nil {
		r.ref = out
		return nil
	}
	switch {
	case out.iterations != r.ref.iterations:
		return fmt.Errorf("%d iterations, first check took %d", out.iterations, r.ref.iterations)
	case out.ranks != r.ref.ranks:
		return fmt.Errorf("rank vectors differ from the first check's")
	case out.report != r.ref.report:
		return fmt.Errorf("detection report differs from the first check's")
	}
	return nil
}

func summarize(res *core.Result, rep *core.Report) *rmatOutput {
	d := newDigest()
	mass := 0.0
	for i := range res.IDRank {
		d.f64(res.IDRank[i])
		d.f64(res.PropRank[i])
		mass += res.IDRank[i]
	}
	ranks := d.sum()
	d = newDigest()
	d.u64(uint64(rep.Checked))
	for _, s := range rep.Suspects {
		d.u64(uint64(s.Vertex), uint64(s.Field))
		d.f64(s.Score)
		for _, p := range s.Peers {
			d.u64(uint64(p))
		}
	}
	for _, r := range rep.Repairs {
		d.u64(uint64(r.Target), uint64(r.Source), uint64(r.Op), uint64(r.Kind))
	}
	for _, a := range rep.Ambiguous {
		d.u64(uint64(a.From), uint64(a.To), uint64(a.Kind))
	}
	return &rmatOutput{
		iterations: res.Iterations,
		converged:  res.Converged,
		ranks:      ranks,
		report:     d.sum(),
		mass:       mass,
	}
}

// digest hashes numbers in a fixed binary layout.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (r *rankRMAT) finish() (int, error) { return 0, nil }

func (r *rankRMAT) walk(tr *tracer, lm layerValues) error {
	opt := core.DefaultOptions()
	var b *graph.Bidirected
	buildS, _ := tr.do("graph.build", true, func() error {
		b = graph.NewBidirectedUntyped(r.n, r.edges, r.workers)
		return nil
	})
	edges := float64(b.Fwd.NumEdges())
	lm.add("graph.build_s", buildS)
	lm.add("graph.edges_per_s", edges/buildS)
	lm.add("graph.csr_mib", float64(b.MemoryBytes())/mib)

	var res *core.Result
	rankS, _ := tr.do("core.rank", true, func() error {
		res = core.Run(b, opt)
		return nil
	})
	lm.add("core.rank_s", rankS)
	lm.add("core.iterations", float64(res.Iterations))
	lm.add("core.edge_updates_per_s", 2*edges*float64(res.Iterations)/rankS)

	var rep *core.Report
	detS, _ := tr.do("core.detect", true, func() error {
		rep = core.Detect(b, res, nil, opt)
		return nil
	})
	lm.add("core.detect_s", detS)
	_, err := tr.do("bench.verify", false, func() error { return r.verify(summarize(res, rep)) })
	if err != nil {
		return fmt.Errorf("traced output: %w", err)
	}
	return nil
}
