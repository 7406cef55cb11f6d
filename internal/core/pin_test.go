package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"faultyrank/internal/graph"
)

// pinnedRankDigests fixes the exact bits every rank entry point
// produces on the testGraphs shapes. Each entry digests IDRank,
// PropRank, Diffs, Trace, Iterations, Converged, Frontier and the
// OnIteration calls of one (graph, options, entry point) case; every
// worker count must land on the same digest. A kernel change that moves
// any float by one ulp, or any counter by one, changes a digest.
var pinnedRankDigests = map[string]string{
	"edgeless/default/frontier":                "0b3e28436f7d53b39c1b0987",
	"edgeless/default/partitioned-k3":          "e2b8939eabba4271238cd7a5",
	"edgeless/default/run":                     "e2b8939eabba4271238cd7a5",
	"edgeless/default/saturated":               "fa9fac27c93e104264677e9c",
	"edgeless/leaky/frontier":                  "31df61d23d007eaf7830b40f",
	"edgeless/leaky/partitioned-k3":            "e2b8939eabba4271238cd7a5",
	"edgeless/leaky/run":                       "e2b8939eabba4271238cd7a5",
	"edgeless/leaky/saturated":                 "7a262882c1beeab96e1e58c7",
	"edgeless/sink-all-traced/frontier":        "ab86258ce9636b15500c2463",
	"edgeless/sink-all-traced/partitioned-k3":  "90991835409a374e4f982833",
	"edgeless/sink-all-traced/run":             "90991835409a374e4f982833",
	"edgeless/sink-all-traced/saturated":       "cbfcf4d258884664b571cb67",
	"edgeless/unsmoothed-tight/frontier":       "6d07020dfc45384ebb88d260",
	"edgeless/unsmoothed-tight/partitioned-k3": "e2b8939eabba4271238cd7a5",
	"edgeless/unsmoothed-tight/run":            "e2b8939eabba4271238cd7a5",
	"edgeless/unsmoothed-tight/saturated":      "d4b087389398c1a99a795c8e",
	"empty/default/frontier":                   "1919c892cf10178dde4a3810",
	"empty/default/partitioned-k3":             "1919c892cf10178dde4a3810",
	"empty/default/run":                        "1919c892cf10178dde4a3810",
	"empty/default/saturated":                  "1919c892cf10178dde4a3810",
	"empty/leaky/frontier":                     "1919c892cf10178dde4a3810",
	"empty/leaky/partitioned-k3":               "1919c892cf10178dde4a3810",
	"empty/leaky/run":                          "1919c892cf10178dde4a3810",
	"empty/leaky/saturated":                    "1919c892cf10178dde4a3810",
	"empty/sink-all-traced/frontier":           "1919c892cf10178dde4a3810",
	"empty/sink-all-traced/partitioned-k3":     "1919c892cf10178dde4a3810",
	"empty/sink-all-traced/run":                "1919c892cf10178dde4a3810",
	"empty/sink-all-traced/saturated":          "1919c892cf10178dde4a3810",
	"empty/unsmoothed-tight/frontier":          "1919c892cf10178dde4a3810",
	"empty/unsmoothed-tight/partitioned-k3":    "1919c892cf10178dde4a3810",
	"empty/unsmoothed-tight/run":               "1919c892cf10178dde4a3810",
	"empty/unsmoothed-tight/saturated":         "1919c892cf10178dde4a3810",
	"faulty/default/frontier":                  "ac5ef8502528f1907288dc6a",
	"faulty/default/partitioned-k3":            "c4139aaadc187f9536e81963",
	"faulty/default/run":                       "c4139aaadc187f9536e81963",
	"faulty/default/saturated":                 "7766327b800e6d4b9b851db4",
	"faulty/leaky/frontier":                    "b63cd751f69b552972ecc4c3",
	"faulty/leaky/partitioned-k3":              "71ed2ed4c95cdf68c091a7a3",
	"faulty/leaky/run":                         "71ed2ed4c95cdf68c091a7a3",
	"faulty/leaky/saturated":                   "efdde0656cb7a4bdb8e01ad7",
	"faulty/sink-all-traced/frontier":          "bbe1dd05661d8b8429704caf",
	"faulty/sink-all-traced/partitioned-k3":    "5e1853795ec0a5029f1d8299",
	"faulty/sink-all-traced/run":               "5e1853795ec0a5029f1d8299",
	"faulty/sink-all-traced/saturated":         "ad5436bb21bd1748dfe42e7b",
	"faulty/unsmoothed-tight/frontier":         "fc26a0b1eb22b05057e9684c",
	"faulty/unsmoothed-tight/partitioned-k3":   "71553819ef1944c46bc33fcb",
	"faulty/unsmoothed-tight/run":              "71553819ef1944c46bc33fcb",
	"faulty/unsmoothed-tight/saturated":        "38797209edf2693bb86887cc",
	"rmat8/default/frontier":                   "bbec942e42a31e002e21c314",
	"rmat8/default/partitioned-k3":             "cc9540272a3733a638fa4522",
	"rmat8/default/run":                        "cc9540272a3733a638fa4522",
	"rmat8/default/saturated":                  "a6d33b51b5034852aaef91fc",
	"rmat8/leaky/frontier":                     "76b4d8490c1a4cadc4578c0d",
	"rmat8/leaky/partitioned-k3":               "d9bc716b01a40b064751d887",
	"rmat8/leaky/run":                          "d9bc716b01a40b064751d887",
	"rmat8/leaky/saturated":                    "5629db33458d187133059473",
	"rmat8/sink-all-traced/frontier":           "19759fe1c6fec5b2f71cbae3",
	"rmat8/sink-all-traced/partitioned-k3":     "0497e0aa113437c3c6143fc2",
	"rmat8/sink-all-traced/run":                "0497e0aa113437c3c6143fc2",
	"rmat8/sink-all-traced/saturated":          "e23d20d7e0abd03ac2a8355d",
	"rmat8/unsmoothed-tight/frontier":          "865a4a276108711a05f43871",
	"rmat8/unsmoothed-tight/partitioned-k3":    "94bcdbc42b2ca295dd99764d",
	"rmat8/unsmoothed-tight/run":               "94bcdbc42b2ca295dd99764d",
	"rmat8/unsmoothed-tight/saturated":         "9c67ecc3b9c4a4af01a4ad09",
	"single/default/frontier":                  "2b2a01ca368adef0733a8766",
	"single/default/partitioned-k3":            "a3ccb7da4ac4bdaf7a38a098",
	"single/default/run":                       "a3ccb7da4ac4bdaf7a38a098",
	"single/default/saturated":                 "7bc5759eea967e544f0a6663",
	"single/leaky/frontier":                    "2b2a01ca368adef0733a8766",
	"single/leaky/partitioned-k3":              "a3ccb7da4ac4bdaf7a38a098",
	"single/leaky/run":                         "a3ccb7da4ac4bdaf7a38a098",
	"single/leaky/saturated":                   "7bc5759eea967e544f0a6663",
	"single/sink-all-traced/frontier":          "d35134f6140154afe0727b69",
	"single/sink-all-traced/partitioned-k3":    "4f73ad6152fef36d74a55810",
	"single/sink-all-traced/run":               "4f73ad6152fef36d74a55810",
	"single/sink-all-traced/saturated":         "ed16dbf28917ef33315cfdc4",
	"single/unsmoothed-tight/frontier":         "2b2a01ca368adef0733a8766",
	"single/unsmoothed-tight/partitioned-k3":   "a3ccb7da4ac4bdaf7a38a098",
	"single/unsmoothed-tight/run":              "a3ccb7da4ac4bdaf7a38a098",
	"single/unsmoothed-tight/saturated":        "7bc5759eea967e544f0a6663",
}

// pinOptions are the option sets the pinned digests cover.
func pinOptions() map[string]Options {
	opts := map[string]Options{"default": DefaultOptions()}
	o := DefaultOptions()
	o.LeakyDistribution = true
	opts["leaky"] = o
	o = DefaultOptions()
	o.SinkPolicy = SinkToAll
	o.ConvergenceTrace = true
	opts["sink-all-traced"] = o
	o = DefaultOptions()
	o.Smoothing = 0
	o.Epsilon = 1e-6
	o.MaxIterations = 60
	opts["unsmoothed-tight"] = o
	return opts
}

// edgesOf lists b's forward edges (with kinds, when b carries them).
func edgesOf(b *graph.Bidirected) []graph.Edge {
	var edges []graph.Edge
	for v := 0; v < b.N(); v++ {
		s, e := b.Fwd.EdgeRange(uint32(v))
		for i := s; i < e; i++ {
			ed := graph.Edge{Src: uint32(v), Dst: b.Fwd.Targets[i]}
			if b.Fwd.Kinds != nil {
				ed.Kind = b.Fwd.Kinds[i]
			}
			edges = append(edges, ed)
		}
	}
	return edges
}

// rankDigest hashes every observable of a result plus the OnIteration
// record the run produced.
func rankDigest(res *Result, calls []float64) string {
	h := sha256.New()
	var buf [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	i := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	vec := func(xs []float64) {
		i(int64(len(xs)))
		for _, x := range xs {
			f(x)
		}
	}
	vec(res.IDRank)
	vec(res.PropRank)
	vec(res.Diffs)
	i(int64(len(res.Trace)))
	for _, s := range res.Trace {
		f(s.MaxDelta)
		f(s.SinkMassID)
		f(s.SinkMassProp)
	}
	i(int64(res.Iterations))
	if res.Converged {
		i(1)
	} else {
		i(0)
	}
	if fs := res.Frontier; fs != nil {
		i(1)
		i(int64(fs.Seeds))
		i(int64(fs.FullSweeps))
		i(int64(fs.MaxActive))
		i(fs.Touched)
		if fs.Saturated {
			i(1)
		} else {
			i(0)
		}
	} else {
		i(0)
	}
	vec(calls)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// pinnedCases runs every entry point on every (graph, options) pair at the
// given worker count and returns the digests by case name.
func pinnedCases(t *testing.T, workers int) map[string]string {
	t.Helper()
	out := map[string]string{}
	for gname, b := range testGraphs(t) {
		n := b.N()
		for oname, base := range pinOptions() {
			opt := base
			opt.Workers = workers
			var calls []float64
			opt.OnIteration = func(iter int, d float64) {
				if iter != len(calls)+1 {
					t.Fatalf("OnIteration iter %d after %d calls", iter, len(calls))
				}
				calls = append(calls, d)
			}
			record := func(entry string, res *Result) {
				out[gname+"/"+oname+"/"+entry] = rankDigest(res, calls)
				calls = nil
			}

			record("run", Run(b, opt))

			prev := Run(b, opt)
			calls = nil
			r := rand.New(rand.NewSource(int64(n) + 17))
			edges2, dirty := edgesOf(b), []uint32(nil)
			if n > 0 {
				edges2, dirty = mutateEdges(r, n, edges2, 3)
			}
			g2 := graph.NewBidirected(n, edges2, 1)
			warm := opt
			warm.InitialID = prev.IDRank
			warm.InitialProp = prev.PropRank
			front := warm
			front.FrontierSaturation = 1 // never saturate
			record("frontier", RunIncremental(g2, front, dirty))
			sat := warm
			sat.FrontierSaturation = 0.01
			record("saturated", RunIncremental(g2, sat, dirty))

			plan := graph.PartitionPlan(b, testOwners(n, 3, 41), 3, 1)
			res, _, err := RunPartitioned(plan, opt)
			if err != nil {
				t.Fatalf("%s/%s partitioned: %v", gname, oname, err)
			}
			record("partitioned-k3", res)
		}
	}
	return out
}

// TestPinnedRankDigests: Run, RunIncremental (frontier and saturated)
// and RunPartitioned reproduce the pinned bits at every worker count.
func TestPinnedRankDigests(t *testing.T) {
	for _, w := range []int{1, 3} {
		got := pinnedCases(t, w)
		if len(got) != len(pinnedRankDigests) {
			t.Fatalf("workers=%d: %d cases, %d pinned", w, len(got), len(pinnedRankDigests))
		}
		for k, want := range pinnedRankDigests {
			if got[k] != want {
				t.Errorf("workers=%d: %s digest %s, pinned %s", w, k, got[k], want)
			}
		}
	}
}
