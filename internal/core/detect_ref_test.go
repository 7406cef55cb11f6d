package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"faultyrank/internal/graph"
)

// refDetect is the serial, map-based Detect the chunked walk replaced,
// with the repair sort keyed on the total (Target, Op, Source, Kind)
// order. It is the reference the equivalence test holds Detect to.
func refDetect(b *graph.Bidirected, res *Result, present []bool, opt Options) *Report {
	rep := &Report{}
	isPresent := func(v uint32) bool { return present == nil || present[v] }
	slack := opt.attributionSlack()
	suspectPeers := map[uint32]map[Field][]uint32{}
	for vi := 0; vi < b.N(); vi++ {
		u := uint32(vi)
		if !b.HasUnpairedEdge(u) {
			continue
		}
		rep.Checked++
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
			var cands []candidate
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
				rep.Ambiguous = append(rep.Ambiguous, Relation{From: u, To: v, Kind: kind})
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
				if suspectPeers[c.vertex] == nil {
					suspectPeers[c.vertex] = map[Field][]uint32{}
				}
				suspectPeers[c.vertex][c.field] = append(suspectPeers[c.vertex][c.field], peer)
				rep.Repairs = append(rep.Repairs, repairFor(c, u, v, kind, isPresent))
			}
		}
	}
	var vertices []uint32
	for v := range suspectPeers {
		vertices = append(vertices, v)
	}
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })
	for _, v := range vertices {
		for _, f := range []Field{FieldID, FieldProperty} {
			peers, ok := suspectPeers[v][f]
			if !ok {
				continue
			}
			score := res.IDRank[v]
			if f == FieldProperty {
				score = res.PropRank[v]
			}
			sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
			var dedup []uint32
			for _, p := range peers {
				if len(dedup) == 0 || dedup[len(dedup)-1] != p {
					dedup = append(dedup, p)
				}
			}
			rep.Suspects = append(rep.Suspects, Suspect{Vertex: v, Field: f, Score: score, Peers: dedup})
		}
	}
	sort.Slice(rep.Repairs, func(i, j int) bool {
		a, b := rep.Repairs[i], rep.Repairs[j]
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Kind < b.Kind
	})
	var repairs []Repair
	for _, r := range rep.Repairs {
		if len(repairs) == 0 || repairs[len(repairs)-1] != r {
			repairs = append(repairs, r)
		}
	}
	rep.Repairs = repairs
	return rep
}

// typedMultigraph draws a small typed multigraph with runs of parallel
// edges of mixed kinds: the shape whose repairs tie on every key but
// Kind.
func typedMultigraph(r *rand.Rand) (int, []graph.Edge) {
	n := 3 + r.Intn(40)
	var edges []graph.Edge
	for i := r.Intn(120); i > 0; i-- {
		u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
		for c := 1 + r.Intn(3); c > 0; c-- {
			edges = append(edges, graph.Edge{Src: u, Dst: v, Kind: graph.EdgeKind(1 + r.Intn(4))})
		}
	}
	return n, edges
}

// TestDetectMatchesReference: the chunked Detect reports exactly what the
// serial reference does, at every worker count, with and without
// phantoms, at the default and a permissive threshold.
func TestDetectMatchesReference(t *testing.T) {
	graphs := detectGraphs(t)
	for seed := int64(0); seed < 40; seed++ {
		n, edges := typedMultigraph(rand.New(rand.NewSource(seed)))
		graphs[fmt.Sprintf("typed-%d", seed)] = graph.NewBidirected(n, edges, 2)
	}
	loose := DefaultOptions()
	loose.Threshold = 1.5
	for gname, b := range graphs {
		phantoms := make([]bool, b.N())
		for v := range phantoms {
			phantoms[v] = v%5 != 2
		}
		for oname, opt := range map[string]Options{"default": DefaultOptions(), "loose": loose} {
			res := Run(b, opt)
			for _, present := range [][]bool{nil, phantoms} {
				want := refDetect(b, res, present, opt)
				for _, w := range []int{1, 2, 3, 8} {
					opt.Workers = w
					if got := Detect(b, res, present, opt); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s phantoms=%v workers=%d: report differs from the reference",
							gname, oname, present != nil, w)
					}
				}
			}
		}
	}
}

// TestDetectRepairsUnique: parallel edges of mixed kinds yield repairs
// that tie on (Target, Op, Source) and differ only in Kind. Every repair
// must still appear once. Sorting on (Target, Op, Source) alone with an
// unstable sort let two copies of {4 1 set-property dirent} straddle
// the lovea one and both survive the adjacent-only dedup.
func TestDetectRepairsUnique(t *testing.T) {
	edges := []graph.Edge{
		{Src: 3, Dst: 5, Kind: graph.KindFilterFID},
		{Src: 3, Dst: 5, Kind: graph.KindFilterFID},
		{Src: 1, Dst: 4, Kind: graph.KindFilterFID},
		{Src: 1, Dst: 4, Kind: graph.KindLinkEA},
		{Src: 1, Dst: 4, Kind: graph.KindLinkEA},
		{Src: 1, Dst: 2, Kind: graph.KindLinkEA},
		{Src: 1, Dst: 2, Kind: graph.KindLinkEA},
		{Src: 2, Dst: 5, Kind: graph.KindDirent},
		{Src: 6, Dst: 4, Kind: graph.KindLOVEA},
		{Src: 6, Dst: 4, Kind: graph.KindLOVEA},
	}
	b := graph.NewBidirected(7, edges, 1)
	for _, w := range []int{1, 3} {
		opt := DefaultOptions()
		opt.Workers = w
		rep := Detect(b, Run(b, opt), nil, opt)
		seen := map[Repair]bool{}
		for _, r := range rep.Repairs {
			if seen[r] {
				t.Fatalf("workers=%d: repair %+v appears twice in %+v", w, r, rep.Repairs)
			}
			seen[r] = true
		}
		want := Repair{Target: 4, Source: 1, Op: RepairSetProperty, Kind: graph.KindDirent}
		if !seen[want] {
			t.Fatalf("workers=%d: repairs %+v lack %+v", w, rep.Repairs, want)
		}
	}
}
