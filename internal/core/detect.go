package core

import (
	"cmp"
	"slices"

	"faultyrank/internal/graph"
	"faultyrank/internal/par"
)

// Field identifies which of the two metadata fields of an object is
// implicated: its unique ID (pointed at by others) or its Properties
// (pointing at others). See paper §III-B.
type Field uint8

const (
	// FieldID is the object's identity (FID / LMA in Lustre terms).
	FieldID Field = iota
	// FieldProperty is the object's pointing metadata (DIRENT, LinkEA,
	// LOVEA, filter-fid).
	FieldProperty
)

func (f Field) String() string {
	if f == FieldID {
		return "id"
	}
	return "property"
}

// Suspect is one metadata field chosen as the root cause of at least one
// unpaired relation.
type Suspect struct {
	Vertex uint32
	Field  Field
	// Score is the field's rank on the mass-N scale (mean 1.0).
	Score float64
	// Peers lists the counterpart vertices of the unpaired relations
	// that implicated this vertex, ascending and deduplicated.
	Peers []uint32
}

// Relation is an unpaired point-to between two vertices: From points to
// To, but To does not point back.
type Relation struct {
	From, To uint32
	Kind     graph.EdgeKind
}

// RepairOp says how a recommended repair rewrites a metadata field.
type RepairOp uint8

const (
	// RepairSetProperty rewrites Target's property so it points to
	// Source (adding the missing point-back / fixing a wrong pointer).
	RepairSetProperty RepairOp = iota
	// RepairSetID overwrites Target's ID with the identity that Source's
	// property refers to (the dangling-reference fix). When Target is a
	// phantom FID, the checker matches it against an orphaned physical
	// object before applying.
	RepairSetID
	// RepairDropPointer removes Target's bogus pointer toward Source:
	// the pointer itself was judged to be the root cause.
	RepairDropPointer
	// RepairQuarantine moves an object whose relations cannot be
	// reconstructed into lost+found (or recreates its lost owner there).
	// Detect never emits it; the checker's classification uses it for
	// stale/orphan/duplicate objects, mirroring LFSCK's safe fallback.
	RepairQuarantine
)

func (op RepairOp) String() string {
	switch op {
	case RepairSetProperty:
		return "set-property"
	case RepairSetID:
		return "set-id"
	case RepairDropPointer:
		return "drop-pointer"
	case RepairQuarantine:
		return "quarantine"
	default:
		return "repair(?)"
	}
}

// Repair is a recommended fix derived from the rank distribution: the
// faulty side of an unpaired relation is overwritten from its healthy
// counterpart (paper §III-F).
type Repair struct {
	Target uint32 // vertex whose field is rewritten
	Source uint32 // counterpart of the unpaired relation
	Op     RepairOp
	// Kind is the metadata field kind the rewritten value lives in (for
	// RepairSetProperty, the counterpart kind of the unanswered edge).
	Kind graph.EdgeKind
}

// Report is the outcome of fault detection on a ranked metadata graph.
type Report struct {
	// Suspects are the root-cause fields, ordered by vertex then field.
	Suspects []Suspect
	// Repairs are the recommended fixes, one per (relation, faulty side).
	Repairs []Repair
	// Ambiguous lists unpaired relations where no implicated field
	// scored below threshold — the paper defers these to users (§VI), or
	// they resolve transitively once a neighbouring repair is applied.
	Ambiguous []Relation
	// Checked is |S_chk|: vertices with at least one unpaired edge.
	Checked int
}

// candidate is one field of one endpoint of an unpaired relation.
type candidate struct {
	vertex uint32
	field  Field
	score  float64
}

// Detect walks the graph's unpaired relations and attributes each to a
// root cause using the converged ranks (paper §III-F, Fig. 5): among the
// four implicated fields — the target's property (missing point-back),
// the target's ID (not the object the source means), the source's
// property (wishful pointer) and the source's ID (point-backs cannot
// reach it) — the lowest-scoring field below Options.Threshold is chosen,
// exactly as the paper "chooses the wrong one compared with" the
// alternative. Other fields below threshold within AttributionSlack× of
// the minimum are co-flagged.
//
// present, when non-nil, marks which vertices are physically scanned
// objects; phantom vertices (referenced-but-never-scanned FIDs) carry no
// properties, so only their ID can be implicated and repairs on them are
// deferred to the checker's phantom/orphan matching.
//
// The walk runs over Options.Workers contiguous vertex chunks. Each
// chunk fills its own buffers in vertex order and the buffers are joined
// in chunk order, so Ambiguous lists relations in source-vertex order and
// the report does not depend on the worker count.
func Detect(b *graph.Bidirected, res *Result, present []bool, opt Options) *Report {
	n := b.N()
	rep := &Report{}
	if n == 0 {
		return rep
	}
	workers := min(opt.workers(), n)
	chunk := (n + workers - 1) / workers
	parts := make([]detectChunk, (n+chunk-1)/chunk)
	par.ForRange(n, workers, func(lo, hi int) {
		parts[lo/chunk].walk(b, res, present, opt, lo, hi)
	})

	hits := make([][]suspectHit, len(parts))
	repairs := make([][]Repair, len(parts))
	ambiguous := make([][]Relation, len(parts))
	for i, p := range parts {
		rep.Checked += p.checked
		hits[i], repairs[i], ambiguous[i] = p.hits, p.repairs, p.ambiguous
	}
	rep.Ambiguous = slices.Concat(ambiguous...)
	rep.Suspects = suspects(hits, res, opt.workers())
	rep.Repairs = sortRepairs(n, repairs, opt.workers())
	return rep
}

// detectChunk is one worker's share of a Detect walk: the relations of
// the source vertices in its chunk, in vertex order.
type detectChunk struct {
	checked   int
	hits      []suspectHit
	repairs   []Repair
	ambiguous []Relation
}

// suspectHit records that one unpaired relation implicated field of
// vertex, with peer at the relation's other end.
type suspectHit struct {
	vertex, peer uint32
	field        Field
}

// walk attributes the unpaired outgoing relations of vertices [lo, hi);
// incoming ones are attributed at their own source, so each relation is
// handled exactly once.
func (p *detectChunk) walk(b *graph.Bidirected, res *Result, present []bool, opt Options, lo, hi int) {
	isPresent := func(v uint32) bool { return present == nil || present[v] }
	slack := opt.attributionSlack()
	for vi := lo; vi < hi; vi++ {
		u := uint32(vi)
		if !b.HasUnpairedEdge(u) {
			continue
		}
		p.checked++
		s, e := b.Fwd.EdgeRange(u)
		for i := s; i < e; i++ {
			if b.FwdPaired[i] == 1 {
				continue
			}
			v := b.Fwd.Targets[i]
			kind := graph.KindGeneric
			if b.Fwd.Kinds != nil {
				kind = b.Fwd.Kinds[i]
			}

			var buf [4]candidate
			cands := buf[:0]
			if isPresent(v) {
				cands = append(cands, candidate{v, FieldProperty, res.PropRank[v]})
			}
			cands = append(cands, candidate{v, FieldID, res.IDRank[v]})
			if isPresent(u) {
				cands = append(cands,
					candidate{u, FieldProperty, res.PropRank[u]},
					candidate{u, FieldID, res.IDRank[u]})
			}

			low := cands[0]
			for _, c := range cands[1:] {
				if c.score < low.score {
					low = c
				}
			}
			if low.score >= opt.Threshold {
				p.ambiguous = append(p.ambiguous, Relation{From: u, To: v, Kind: kind})
				continue
			}
			for _, c := range cands {
				if c.score >= opt.Threshold || c.score > low.score*slack {
					continue
				}
				peer := u
				if c.vertex == u {
					peer = v
				}
				p.hits = append(p.hits, suspectHit{vertex: c.vertex, peer: peer, field: c.field})
				p.repairs = append(p.repairs, repairFor(c, u, v, kind, isPresent))
			}
		}
	}
}

// suspects groups hits into one Suspect per implicated (vertex, field),
// ordered by vertex then field (ID before Property), each with its peers
// ascending and deduplicated.
func suspects(hits [][]suspectHit, res *Result, workers int) []Suspect {
	sorted, start := bucketSort(hits, 2*len(res.IDRank), workers, func(h suspectHit) int {
		return 2*int(h.vertex) + int(h.field)
	}, func(a, b suspectHit) int { return cmp.Compare(a.peer, b.peer) })
	var out []Suspect
	peers := make([]uint32, 0, len(sorted)) // every Suspect's Peers, back to back
	for k := 0; k+1 < len(start); k++ {
		bucket := sorted[start[k]:start[k+1]]
		if len(bucket) == 0 {
			continue
		}
		v, f := bucket[0].vertex, bucket[0].field
		s := Suspect{Vertex: v, Field: f, Score: res.IDRank[v]}
		if f == FieldProperty {
			s.Score = res.PropRank[v]
		}
		from := len(peers)
		for _, h := range bucket {
			if len(peers) == from || peers[len(peers)-1] != h.peer {
				peers = append(peers, h.peer)
			}
		}
		s.Peers = peers[from:len(peers):len(peers)]
		out = append(out, s)
	}
	return out
}

// sortRepairs orders repairs over n vertices by the total key (Target,
// Op, Source, Kind) and drops duplicates.
func sortRepairs(n int, repairs [][]Repair, workers int) []Repair {
	sorted, _ := bucketSort(repairs, n, workers, func(r Repair) int { return int(r.Target) },
		func(a, b Repair) int {
			return cmp.Or(cmp.Compare(a.Op, b.Op), cmp.Compare(a.Source, b.Source), cmp.Compare(a.Kind, b.Kind))
		})
	if len(sorted) == 0 {
		return nil
	}
	return slices.Compact(sorted)
}

// bucketSort orders the items of parts by key (in [0, k)) with a
// counting sort, then sorts each bucket by within, in parallel over
// buckets. It returns the sorted items and the k+1 bucket starts.
func bucketSort[T any](parts [][]T, k, workers int, key func(T) int, within func(a, b T) int) ([]T, []int) {
	start := make([]int, k+1)
	for _, part := range parts {
		for _, it := range part {
			start[key(it)+1]++
		}
	}
	for b := 0; b < k; b++ {
		start[b+1] += start[b]
	}
	out := make([]T, start[k])
	cur := slices.Clone(start[:k])
	for _, part := range parts {
		for _, it := range part {
			b := key(it)
			out[cur[b]] = it
			cur[b]++
		}
	}
	par.ForRange(k, workers, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			if start[b+1]-start[b] > 1 {
				slices.SortFunc(out[start[b]:start[b+1]], within)
			}
		}
	})
	return out, start
}

// repairFor translates a root-cause attribution for unpaired relation
// u->v (kind k) into a concrete repair recommendation.
func repairFor(c candidate, u, v uint32, k graph.EdgeKind, isPresent func(uint32) bool) Repair {
	switch {
	case c.vertex == v && c.field == FieldProperty:
		// v fails to point back: rebuild its property from u's identity.
		return Repair{Target: v, Source: u, Op: RepairSetProperty, Kind: k.Counterpart()}
	case c.vertex == v && c.field == FieldID:
		// The identity u refers to is not carried by a credible object:
		// rewrite the (mis-ID'd) object's identity from u's property.
		return Repair{Target: v, Source: u, Op: RepairSetID, Kind: k}
	case c.vertex == u && c.field == FieldProperty:
		// u's pointer itself is bogus: drop it (its replacement, if any,
		// is recommended by the relations that point at u unanswered).
		return Repair{Target: u, Source: v, Op: RepairDropPointer, Kind: k}
	default: // c.vertex == u && c.field == FieldID
		// u's identity is wrong, so v's point-back cannot reach it:
		// overwrite u's identity with the one v's property refers to.
		return Repair{Target: u, Source: v, Op: RepairSetID, Kind: k.Counterpart()}
	}
}

// Suspected reports whether the given field of vertex v is in the report.
func (r *Report) Suspected(v uint32, f Field) bool {
	for _, s := range r.Suspects {
		if s.Vertex == v && s.Field == f {
			return true
		}
	}
	return false
}
