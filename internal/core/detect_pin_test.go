package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/rmat"
)

// pinnedDetectDigests fixes the exact Detect report on the testGraphs
// shapes plus an untyped R-MAT-12 graph, with every vertex present and
// with every seventh vertex a phantom. Each digest covers Checked, the
// Suspects (vertex, field, score bits, peers), the Repairs and the
// Ambiguous relations in report order; every worker count must land on
// the same digest. None of these graphs has two edge kinds, so repairs
// never tie on Kind.
var pinnedDetectDigests = map[string]string{
	"edgeless/phantoms": "66687aadf862bd776c8fc18b",
	"edgeless/present":  "66687aadf862bd776c8fc18b",
	"empty/phantoms":    "66687aadf862bd776c8fc18b",
	"empty/present":     "66687aadf862bd776c8fc18b",
	"faulty/phantoms":   "c57b8deec08d21031a4cdd67", // 32 suspects, 60 repairs, 258 ambiguous
	"faulty/present":    "bc090b55754016ab0fd006d9", // 34 suspects, 64 repairs, 255 ambiguous
	"rmat12/phantoms":   "70c3c0d6ec1a5f9722cbb91b", // 2249 suspects, 8789 repairs, 18729 ambiguous
	"rmat12/present":    "9fae02675a4021ccf26bab30", // 2435 suspects, 9727 repairs, 17991 ambiguous
	"rmat8/phantoms":    "fa5eec3a74944ef990a8581f", // 161 suspects, 633 repairs, 691 ambiguous
	"rmat8/present":     "c1a487cc1000c6a8ab045d0b", // 177 suspects, 729 repairs, 595 ambiguous
	"single/phantoms":   "66687aadf862bd776c8fc18b",
	"single/present":    "66687aadf862bd776c8fc18b",
}

// detectDigest hashes every observable of a report.
func detectDigest(rep *Report) string {
	h := sha256.New()
	var buf [8]byte
	u := func(xs ...uint64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
	}
	u(uint64(rep.Checked), uint64(len(rep.Suspects)))
	for _, s := range rep.Suspects {
		u(uint64(s.Vertex), uint64(s.Field), math.Float64bits(s.Score), uint64(len(s.Peers)))
		for _, p := range s.Peers {
			u(uint64(p))
		}
	}
	u(uint64(len(rep.Repairs)))
	for _, r := range rep.Repairs {
		u(uint64(r.Target), uint64(r.Source), uint64(r.Op), uint64(r.Kind))
	}
	u(uint64(len(rep.Ambiguous)))
	for _, a := range rep.Ambiguous {
		u(uint64(a.From), uint64(a.To), uint64(a.Kind))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// detectGraphs are testGraphs plus an untyped R-MAT-12 graph, whose
// hubs give Detect many repairs, suspects with long peer lists and
// ambiguous relations.
func detectGraphs(t *testing.T) map[string]*graph.Bidirected {
	graphs := testGraphs(t)
	edges := rmat.Generate(rmat.Graph500(12, 8, 5), 2)
	graphs["rmat12"] = graph.NewBidirectedUntyped(1<<12, edges, 2)
	return graphs
}

// detectCases runs Detect on every pinned case at one worker count.
func detectCases(t *testing.T, workers int) map[string]*Report {
	t.Helper()
	out := map[string]*Report{}
	for gname, b := range detectGraphs(t) {
		opt := DefaultOptions()
		opt.Workers = workers
		res := Run(b, opt)
		phantoms := make([]bool, b.N())
		for v := range phantoms {
			phantoms[v] = v%7 != 0
		}
		out[gname+"/present"] = Detect(b, res, nil, opt)
		out[gname+"/phantoms"] = Detect(b, res, phantoms, opt)
	}
	return out
}

// TestPinnedDetectDigests: Detect reproduces the pinned reports at
// every worker count.
func TestPinnedDetectDigests(t *testing.T) {
	for _, w := range []int{1, 3} {
		got := detectCases(t, w)
		if len(got) != len(pinnedDetectDigests) {
			for k, rep := range got {
				t.Logf("%q: %q, // %d suspects %d repairs %d ambiguous", k, detectDigest(rep),
					len(rep.Suspects), len(rep.Repairs), len(rep.Ambiguous))
			}
			t.Fatalf("workers=%d: %d cases, %d pinned", w, len(got), len(pinnedDetectDigests))
		}
		for k, want := range pinnedDetectDigests {
			if d := detectDigest(got[k]); d != want {
				t.Errorf("workers=%d: %s digest %s, pinned %s", w, k, d, want)
			}
		}
	}
}
