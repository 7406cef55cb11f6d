package core

import (
	"fmt"
	"sort"
	"sync"

	"faultyrank/internal/graph"
)

// Partitioned rank execution. Run's two-phase sweep decomposes into a
// bulk-synchronous protocol between one coordinator and K partition
// workers, each holding a graph.SubGraph:
//
//	coordinator            worker p (per iteration)
//	---------------------  -------------------------------------------
//	                   <-- UpA   {sink-A values, boundary prop values}
//	fold sink mass,
//	route ghosts       --> DownA {baseA, perSinkA, ghost prop values}
//	                       phase A sweep over local Rev rows
//	                   <-- UpB   {sink-B values, boundary ID values,
//	                              local max |Δ id|}
//	fold, decide halt  --> DownB {baseB, perSinkB, ghost IDs, halt?}
//	                       phase B sweep over local Fwd rows
//
// The protocol is framed by Init (seed scatter) and Done (rank gather).
//
// The decomposition is exact, not approximate: workers run Run's
// sweeper over their SubGraph rows, so every float operation of the
// single-process kernel happens in the same order with the same
// operands. The per-vertex gathers preserve global CSR row order
// (graph.SubGraph's construction invariant); the only cross-partition
// reductions are the sink-mass sums, whose canonical fixed-block order
// (see sinkBlock in ranks.go) the coordinator reproduces term for term
// by routing raw sink values through a static global-ascending
// schedule; and max |Δ| is order-insensitive. So a K-partition run
// returns ranks bit-identical to Run's for any K and any owners map —
// the equivalence tests assert exactly that.

// RankDelta frame kinds.
const (
	// RankHello is the TCP handshake: a dialing worker announces its
	// partition index before the coordinator starts the protocol.
	RankHello uint8 = iota + 1
	// RankInit scatters the (rescaled) initial ranks to one partition;
	// Halt set means "answer with Done immediately" (zero-iteration runs).
	RankInit
	// RankUpA carries a partition's phase-A inputs: its local sink
	// values and its boundary prop values, one bundle per peer.
	RankUpA
	// RankDownA answers with the folded sink shares and the partition's
	// ghost prop values.
	RankDownA
	// RankUpB carries the phase-B inputs plus the partition-local
	// max |Δ id_rank|.
	RankUpB
	// RankDownB answers like DownA and carries the halt decision.
	RankDownB
	// RankDone returns a partition's final local ranks.
	RankDone
)

// RankDelta is the single frame type of the superstep exchange; which
// fields are populated depends on Kind. It crosses the wire via the
// versioned MsgRankDelta codec (internal/wire) and crosses goroutines
// verbatim on the in-process path.
type RankDelta struct {
	Kind uint8
	Part uint32
	Iter uint32

	// Base and PerSink are the folded sink shares (sinkShares output)
	// on Down frames; Diff is the local max |Δ id| on UpB.
	Base    float64
	PerSink float64
	Diff    float64

	// Halt on DownB ends the loop after the current phase B; on Init it
	// requests an immediate Done.
	Halt bool

	// Sum rides only on Hello frames: the FNV-1a fingerprint of the
	// worker's shard in canonical FRSG encoding
	// (graph.(*SubGraph).Fingerprint), with 0 reserved for "no shard,
	// ship me one". Together with Iter — which Hello reuses to carry the
	// worker's believed K — it lets the coordinator reject a stale or
	// mis-pointed worker before any superstep runs.
	Sum uint64

	// Sink carries the partition's sink-vertex rank values in ascending
	// local order (Up frames); Ghost the partition's ghost-column
	// values in ghost order (Down frames).
	Sink  []float64
	Ghost []float64

	// ID and Prop carry per-local rank vectors (Init seeds, Done results).
	ID   []float64
	Prop []float64

	// Bound[q] carries the values partition q needs as ghosts, in the
	// SubGraph.SendTo[q] schedule order (Up frames). Length K or nil.
	Bound [][]float64
}

// WireSize returns the byte length of the frame's canonical wire
// encoding (wire.EncodeRankDelta), so exchange accounting reports the
// same volumes on the in-process and TCP paths.
func (d *RankDelta) WireSize() int {
	n := 61 // version, kind, part, iter, 3 floats, sum, halt, 4 counts, bound count
	n += 8 * (len(d.Sink) + len(d.Ghost) + len(d.ID) + len(d.Prop))
	for _, b := range d.Bound {
		n += 4 + 8*len(b)
	}
	return n
}

// Link is one coordinator<->worker duplex channel. The in-process path
// uses buffered Go channels; the TCP path is wire.RankConn.
type Link interface {
	Send(*RankDelta) error
	Recv() (*RankDelta, error)
}

// PartError attributes a failed exchange to the partition whose link
// broke — the checker's degraded mode reports the name.
type PartError struct {
	Part int
	Err  error
}

func (e *PartError) Error() string { return fmt.Sprintf("rank partition %d: %v", e.Part, e.Err) }
func (e *PartError) Unwrap() error { return e.Err }

// PartState is one rank worker's mutable state: the sweeper over its
// SubGraph rows and the column-sized rank arrays (locals in
// [0, NLocal), ghosts above).
type PartState struct {
	Sub *graph.SubGraph

	sw *sweeper

	// sinkALoc/sinkBLoc list the local indices that are phase A/B
	// sinks, ascending; their values feed the coordinator's canonical
	// sink-mass fold.
	sinkALoc []uint32
	sinkBLoc []uint32

	id, prop []float64
}

// NewPartState prepares a worker for RunPartition. opt.Workers bounds
// this partition's sweep parallelism (see PartOptions).
func NewPartState(sub *graph.SubGraph, opt Options) *PartState {
	st := &PartState{
		Sub:  sub,
		sw:   subSweeper(sub, opt),
		id:   make([]float64, sub.NCols()),
		prop: make([]float64, sub.NCols()),
	}
	for l := 0; l < sub.NLocal(); l++ {
		if st.sw.invOut[l] == 0 {
			st.sinkALoc = append(st.sinkALoc, uint32(l))
		}
		if st.sw.invW[l] == 0 {
			st.sinkBLoc = append(st.sinkBLoc, uint32(l))
		}
	}
	return st
}

func gatherAt(dst []float64, src []float64, idx []uint32) []float64 {
	dst = dst[:0]
	for _, i := range idx {
		dst = append(dst, src[i])
	}
	return dst
}

// sendUp ships one Up frame: the sink values and the boundary bundles of
// vals (prop before phase A, id before phase B). Values are copied into
// the reused frame (gathers are non-contiguous), so the rank arrays stay
// private.
func (st *PartState) sendUp(link Link, up *RankDelta, iter uint32, vals []float64, sinks []uint32) error {
	up.Iter = iter
	up.Sink = gatherAt(up.Sink, vals, sinks)
	for q, sched := range st.Sub.SendTo {
		up.Bound[q] = gatherAt(up.Bound[q], vals, sched)
	}
	return link.Send(up)
}

// recvDown waits for the coordinator's answer to an Up frame and loads
// its ghost values into the ghost columns of vals.
func (st *PartState) recvDown(link Link, kind uint8, iter uint32, vals []float64) (*RankDelta, error) {
	sub := st.Sub
	d, err := link.Recv()
	if err != nil {
		return nil, err
	}
	if d.Kind != kind || d.Iter != iter {
		return nil, fmt.Errorf("rank worker %d: expected frame kind %d iter %d, got kind %d iter %d", sub.Part, kind, iter, d.Kind, d.Iter)
	}
	if len(d.Ghost) != len(sub.Ghosts) {
		return nil, fmt.Errorf("rank worker %d: frame kind %d carries %d ghosts, want %d", sub.Part, kind, len(d.Ghost), len(sub.Ghosts))
	}
	copy(vals[sub.NLocal():], d.Ghost)
	return d, nil
}

// RunPartition executes one worker's side of the superstep protocol
// until the coordinator halts it or the link breaks.
func RunPartition(st *PartState, link Link) error {
	sub := st.Sub
	nLocal := sub.NLocal()

	init, err := link.Recv()
	if err != nil {
		return err
	}
	if init.Kind != RankInit {
		return fmt.Errorf("rank worker %d: expected Init, got kind %d", sub.Part, init.Kind)
	}
	if len(init.ID) != nLocal || len(init.Prop) != nLocal {
		return fmt.Errorf("rank worker %d: Init seed length %d/%d, want %d", sub.Part, len(init.ID), len(init.Prop), nLocal)
	}
	copy(st.id, init.ID)
	copy(st.prop, init.Prop)

	upA := &RankDelta{Kind: RankUpA, Part: uint32(sub.Part), Bound: make([][]float64, len(sub.SendTo))}
	upB := &RankDelta{Kind: RankUpB, Part: uint32(sub.Part), Bound: make([][]float64, len(sub.SendTo))}
	for iter := uint32(0); !init.Halt; iter++ {
		// ---- superstep A: ship sinks+boundary, recv shares+ghosts ---
		if err := st.sendUp(link, upA, iter, st.prop, st.sinkALoc); err != nil {
			return err
		}
		downA, err := st.recvDown(link, RankDownA, iter, st.prop)
		if err != nil {
			return err
		}
		upB.Diff = st.sw.phaseA(st.id, st.prop, nil, downA.Base, downA.PerSink, nil)

		// ---- superstep B ---------------------------------------------
		if err := st.sendUp(link, upB, iter, st.id, st.sinkBLoc); err != nil {
			return err
		}
		downB, err := st.recvDown(link, RankDownB, iter, st.id)
		if err != nil {
			return err
		}
		st.sw.phaseB(st.id, st.prop, nil, downB.Base, downB.PerSink, nil)
		if downB.Halt {
			break
		}
	}
	return link.Send(&RankDelta{
		Kind: RankDone,
		Part: uint32(sub.Part),
		ID:   st.id[:nLocal],
		Prop: st.prop[:nLocal],
	})
}

// SuperstepStats is one iteration's exchange record.
type SuperstepStats struct {
	Iter int `json:"iter"`
	// MaxDelta is the folded convergence measure (same scale as
	// Result.Diffs); SinkMassID/SinkMassProp the redistributed masses.
	MaxDelta     float64 `json:"max_delta"`
	SinkMassID   float64 `json:"sink_mass_id"`
	SinkMassProp float64 `json:"sink_mass_prop"`
	// UpBytes/DownBytes count the canonical encoded sizes of the four
	// frames of this iteration (UpA+UpB and DownA+DownB, summed over
	// partitions).
	UpBytes   int64 `json:"up_bytes"`
	DownBytes int64 `json:"down_bytes"`
}

// PartSummary describes one partition's share of the graph.
type PartSummary struct {
	Part     int   `json:"part"`
	Locals   int   `json:"locals"`
	Ghosts   int   `json:"ghosts"`
	CutEdges int64 `json:"cut_edges"`
}

// ExchangeReport is the coordinator's account of a partitioned run.
type ExchangeReport struct {
	K          int              `json:"k"`
	Supersteps []SuperstepStats `json:"supersteps"`
	Partitions []PartSummary    `json:"partitions"`
	// UpBytes/DownBytes are run totals, Init and Done frames included.
	UpBytes   int64 `json:"up_bytes"`
	DownBytes int64 `json:"down_bytes"`
}

// sinkRef addresses one sink vertex's value inside the Up frames: the
// global vertex gid is the cursors[part]'th entry of partition part's
// Sink array. Refs are sorted by gid, so walking them in order visits
// sinks in global-ascending order — the canonical sum order.
type sinkRef struct {
	gid  uint32
	part uint16
}

// buildSinkRefs lists every partition's phase A and phase B sinks in
// global-ascending order, classified by the same divisors the workers'
// sweepers use.
func buildSinkRefs(plan *graph.Plan, opt Options) (refsA, refsB []sinkRef) {
	for p, sub := range plan.Parts {
		for l := 0; l < sub.NLocal(); l++ {
			invOut, invW := divisors(int(sub.OutDeg[l]), int(sub.PairedIn[l]), int(sub.UnpairedIn[l]), opt)
			ref := sinkRef{gid: sub.Local[l], part: uint16(p)}
			if invOut == 0 {
				refsA = append(refsA, ref)
			}
			if invW == 0 {
				refsB = append(refsB, ref)
			}
		}
	}
	for _, refs := range [][]sinkRef{refsA, refsB} {
		sort.Slice(refs, func(i, j int) bool { return refs[i].gid < refs[j].gid })
	}
	return refsA, refsB
}

// foldSinks reproduces sinkCache's canonical blocked sum from the raw
// sink values the partitions shipped: terms land in their fixed
// 4096-wide block in ascending-gid order, and the block partials fold
// in ascending block order — the exact term sequence of the
// single-process reduction.
func foldSinks(refs []sinkRef, ups []*RankDelta, partial []float64, cursors []int) float64 {
	clear(partial)
	clear(cursors)
	for _, r := range refs {
		partial[int(r.gid)/sinkBlock] += ups[r.part].Sink[cursors[r.part]]
		cursors[r.part]++
	}
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum
}

func sendAll(links []Link, frames []*RankDelta) error {
	errs := make([]error, len(links))
	var wg sync.WaitGroup
	for p := range links {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = links[p].Send(frames[p])
		}(p)
	}
	wg.Wait()
	return firstPartError(errs)
}

func recvAll(links []Link, kind uint8, iter uint32) ([]*RankDelta, error) {
	out := make([]*RankDelta, len(links))
	errs := make([]error, len(links))
	var wg sync.WaitGroup
	for p := range links {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			d, err := links[p].Recv()
			if err == nil {
				if d.Kind != kind || d.Iter != iter {
					err = fmt.Errorf("expected frame kind %d iter %d, got kind %d iter %d", kind, iter, d.Kind, d.Iter)
				} else if d.Part != uint32(p) {
					err = fmt.Errorf("frame claims partition %d on link %d", d.Part, p)
				}
			}
			out[p], errs[p] = d, err
		}(p)
	}
	wg.Wait()
	return out, firstPartError(errs)
}

func firstPartError(errs []error) error {
	for p, err := range errs {
		if err != nil {
			return &PartError{Part: p, Err: err}
		}
	}
	return nil
}

// Coordinate runs the coordinator side of a partitioned rank execution
// over one established link per partition. It returns the same Result a
// single-process Run over the unpartitioned graph would — bit for bit —
// plus the exchange accounting.
func Coordinate(plan *graph.Plan, links []Link, opt Options) (*Result, *ExchangeReport, error) {
	if len(links) != plan.K {
		return nil, nil, fmt.Errorf("core: %d links for %d partitions", len(links), plan.K)
	}
	n := plan.N
	res := &Result{
		IDRank:   make([]float64, n),
		PropRank: make([]float64, n),
	}
	rep := &ExchangeReport{K: plan.K}
	// Initial ranks: exactly Run's seeding, scattered to the owners.
	id0, prop0 := seedRanks(n, opt)
	haltNow := n == 0 || opt.MaxIterations <= 0
	inits := make([]*RankDelta, plan.K)
	for p, sub := range plan.Parts {
		rep.Partitions = append(rep.Partitions, PartSummary{Part: sub.Part, Locals: sub.NLocal(), Ghosts: len(sub.Ghosts), CutEdges: sub.CutEdges})
		init := &RankDelta{Kind: RankInit, Part: uint32(p), Halt: haltNow}
		for _, g := range sub.Local {
			init.ID = append(init.ID, id0[g])
			init.Prop = append(init.Prop, prop0[g])
		}
		inits[p] = init
		rep.DownBytes += int64(init.WireSize())
	}
	if err := sendAll(links, inits); err != nil {
		return nil, rep, err
	}

	refsA, refsB := buildSinkRefs(plan, opt)
	c := &coordinator{
		plan:    plan,
		links:   links,
		n:       n,
		policy:  opt.SinkPolicy,
		partial: make([]float64, (n+sinkBlock-1)/sinkBlock),
		cursors: make([]int, plan.K),
		downs:   make([]*RankDelta, plan.K),
	}
	for p, sub := range plan.Parts {
		c.downs[p] = &RankDelta{Part: uint32(p), Ghost: make([]float64, len(sub.Ghosts))}
	}
	for iter := uint32(0); !haltNow; iter++ {
		c.up, c.down = 0, 0
		sinkA, err := c.superstep(iter, RankUpA, RankDownA, refsA, nil)
		if err != nil {
			return nil, rep, err
		}
		var diff float64
		sinkB, err := c.superstep(iter, RankUpB, RankDownB, refsB, func(ups []*RankDelta) bool {
			var maxD float64
			for _, u := range ups {
				if u.Diff > maxD {
					maxD = u.Diff
				}
			}
			diff = opt.unsmoothed(maxD)
			haltNow = diff < opt.Epsilon || int(iter)+1 >= opt.MaxIterations
			return haltNow
		})
		if err != nil {
			return nil, rep, err
		}
		rep.Supersteps = append(rep.Supersteps, SuperstepStats{
			Iter:         int(iter),
			MaxDelta:     diff,
			SinkMassID:   sinkA,
			SinkMassProp: sinkB,
			UpBytes:      c.up,
			DownBytes:    c.down,
		})
		rep.UpBytes += c.up
		rep.DownBytes += c.down
		res.record(opt, diff, sinkA, sinkB)
		res.Converged = diff < opt.Epsilon
	}

	// ---- gather final ranks -----------------------------------------
	dones, err := recvAll(links, RankDone, 0)
	if err != nil {
		return nil, rep, err
	}
	for p, d := range dones {
		sub := plan.Parts[p]
		if len(d.ID) != sub.NLocal() || len(d.Prop) != sub.NLocal() {
			return nil, rep, &PartError{Part: p, Err: fmt.Errorf("Done carries %d/%d ranks, want %d", len(d.ID), len(d.Prop), sub.NLocal())}
		}
		rep.UpBytes += int64(d.WireSize())
		for l, g := range sub.Local {
			res.IDRank[g] = d.ID[l]
			res.PropRank[g] = d.Prop[l]
		}
	}
	if n == 0 {
		res.Converged = true
	}
	return res, rep, nil
}

// coordinator is the exchange state of one Coordinate run.
type coordinator struct {
	plan    *graph.Plan
	links   []Link
	n       int
	policy  SinkPolicy
	partial []float64 // foldSinks block partials
	cursors []int     // per-partition read cursors
	downs   []*RankDelta
	up      int64 // encoded Up bytes of the current iteration
	down    int64 // encoded Down bytes of the current iteration
}

// superstep gathers every partition's Up frame of kind up, folds the
// sink values at refs into the phase's sink mass, routes the boundary
// values into each partition's ghosts, and answers with a Down frame of
// kind down carrying the folded sink shares. halt, when set, decides
// the Down frames' Halt flag from the Up frames. It returns the sink
// mass.
func (c *coordinator) superstep(iter uint32, up, down uint8, refs []sinkRef, halt func([]*RankDelta) bool) (float64, error) {
	ups, err := recvAll(c.links, up, iter)
	if err != nil {
		return 0, err
	}
	if err := checkUps(c.plan, ups, refs); err != nil {
		return 0, err
	}
	for _, u := range ups {
		c.up += int64(u.WireSize())
	}
	mass := foldSinks(refs, ups, c.partial, c.cursors)
	base, perSink := sinkShares(mass, c.n, c.policy)
	stop := halt != nil && halt(ups)
	// Partition q's ghosts ascend by global GID and so does every
	// SendTo[·][q] schedule, so a per-owner cursor walk lines the two up
	// exactly.
	for q, sub := range c.plan.Parts {
		clear(c.cursors)
		d := c.downs[q]
		for i, g := range sub.Ghosts {
			o := c.plan.Owners[g]
			d.Ghost[i] = ups[o].Bound[q][c.cursors[o]]
			c.cursors[o]++
		}
		d.Kind, d.Iter, d.Base, d.PerSink, d.Halt = down, iter, base, perSink, stop
		c.down += int64(d.WireSize())
	}
	return mass, sendAll(c.links, c.downs)
}

// checkUps validates the shape of one round of Up frames before the
// fold and routing index into them.
func checkUps(plan *graph.Plan, ups []*RankDelta, refs []sinkRef) error {
	want := make([]int, plan.K)
	for _, r := range refs {
		want[r.part]++
	}
	for p, u := range ups {
		if len(u.Sink) != want[p] {
			return &PartError{Part: p, Err: fmt.Errorf("up frame carries %d sink values, want %d", len(u.Sink), want[p])}
		}
		if len(u.Bound) != plan.K {
			return &PartError{Part: p, Err: fmt.Errorf("up frame carries %d bound bundles, want %d", len(u.Bound), plan.K)}
		}
		for q, b := range u.Bound {
			if len(b) != len(plan.Parts[p].SendTo[q]) {
				return &PartError{Part: p, Err: fmt.Errorf("bound bundle for %d carries %d values, want %d", q, len(b), len(plan.Parts[p].SendTo[q]))}
			}
		}
	}
	return nil
}

// errLinkClosed reports an in-process link torn down by the peer.
var errLinkClosed = fmt.Errorf("core: rank link closed")

// LocalLink is one end of an in-process superstep link — the channel
// counterpart of the TCP wire.RankConn. Closing either end releases
// both: a blocked Send or Recv returns an error, so a crashed worker
// surfaces at the coordinator as a named PartError instead of hanging
// the superstep barrier.
type LocalLink struct {
	in   chan *RankDelta
	out  chan *RankDelta
	done chan struct{}
	stop *sync.Once
}

// LinkPair returns the coordinator and worker ends of a fresh in-process
// link. The channels are buffered one frame deep — enough for the
// strictly alternating protocol — and share a teardown signal.
func LinkPair() (coord, worker *LocalLink) {
	toWorker := make(chan *RankDelta, 1)
	toCoord := make(chan *RankDelta, 1)
	done := make(chan struct{})
	stop := &sync.Once{}
	coord = &LocalLink{in: toCoord, out: toWorker, done: done, stop: stop}
	worker = &LocalLink{in: toWorker, out: toCoord, done: done, stop: stop}
	return coord, worker
}

// Send hands a frame to the peer, or fails once the pair is torn down.
func (l *LocalLink) Send(d *RankDelta) error {
	select {
	case l.out <- d:
		return nil
	case <-l.done:
		return errLinkClosed
	}
}

// Recv drains a frame already in flight before honouring teardown, so a
// peer that sends its final frame and immediately closes cannot race
// its own goodbye.
func (l *LocalLink) Recv() (*RankDelta, error) {
	select {
	case d := <-l.in:
		return d, nil
	default:
	}
	select {
	case d := <-l.in:
		return d, nil
	case <-l.done:
		return nil, errLinkClosed
	}
}

// Close tears the pair down; idempotent, releases both ends.
func (l *LocalLink) Close() error {
	l.stop.Do(func() { close(l.done) })
	return nil
}

// PartOptions returns the options each of k partition workers runs
// with: opt with its worker budget divided across the partitions
// (minimum 1 each).
func PartOptions(opt Options, k int) Options {
	opt.Workers = max(opt.workers()/k, 1)
	return opt
}

// RunPartitioned executes a partitioned rank run entirely in-process:
// one goroutine per partition worker on a LinkPair, the calling
// goroutine as coordinator. Each worker's state is built with
// PartOptions(opt, plan.K). By default a worker runs RunPartition; a
// caller that needs per-partition instrumentation or fault injection
// passes worker, which must run st's side of the protocol over link.
func RunPartitioned(plan *graph.Plan, opt Options, worker ...func(p int, st *PartState, link Link) error) (*Result, *ExchangeReport, error) {
	run := func(_ int, st *PartState, link Link) error { return RunPartition(st, link) }
	if len(worker) > 0 && worker[0] != nil {
		run = worker[0]
	}
	wopt := PartOptions(opt, plan.K)
	links := make([]Link, plan.K)
	ends := make([]*LocalLink, plan.K)
	var wg sync.WaitGroup
	for p := range ends {
		coord, end := LinkPair()
		links[p], ends[p] = coord, end
		st := NewPartState(plan.Parts[p], wopt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker error breaks the protocol; closing the pair turns
			// the coordinator's next wait into a named PartError.
			if err := run(p, st, end); err != nil {
				end.Close()
			}
		}()
	}
	res, rep, err := Coordinate(plan, links, opt)
	for _, end := range ends {
		end.Close()
	}
	wg.Wait()
	return res, rep, err
}
