package main

import (
	"fmt"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/health"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/online"
	"faultyrank/internal/workload"
)

// churnDirFiles caps the files the churn puts in one directory, well
// below a compact-geometry directory's dirent capacity.
const churnDirFiles = 1000

// churn is online-churn: namespace writes through the lustre client API
// beside an online tracker that checks after every batch, grades the
// findings and saves its state — frhealthd's round, driven directly.
type churn struct {
	workers  int
	ops      int
	state    string
	c        *lustre.Cluster
	images   []*ldiskfs.Image
	inj      *inject.Injection
	tracker  *online.Tracker
	rules    *health.RuleSet
	rng      *rand.Rand
	live     []string // files the churn may unlink or rename
	seq      int
	dirs     int
	dirFiles int
	last     *checker.Result
}

// churnSeed derives the workload's own seed from the run's seed, so
// its cluster is not offline-tcp's.
func churnSeed(seed int64) int64 { return seed*7919 + 17 }

func (ch *churn) opt() checker.Options {
	opt := checker.DefaultOptions()
	opt.Workers = ch.workers
	return opt
}

func (ch *churn) setup(e env) error {
	ch.workers, ch.ops, ch.state = e.Workers, e.Sizes.ChurnOps, e.State
	seed := churnSeed(e.Seed)
	c, alive, err := agedCluster(e.Sizes.MDTInodes, seed)
	if err != nil {
		return err
	}
	victims, err := pickVictims(c, alive, 1, seed)
	if err != nil {
		return err
	}
	ch.inj, err = inject.Inject(c, inject.MismatchFilterFID, victims[0])
	if err != nil {
		return fmt.Errorf("injecting %s into %s: %w", inject.MismatchFilterFID, victims[0], err)
	}
	// The churn never touches the victim's directory.
	vdir := path.Dir(victims[0])
	for _, p := range alive {
		if path.Dir(p) != vdir {
			ch.live = append(ch.live, p)
		}
	}
	sort.Strings(ch.live)
	ch.c = c
	ch.images = checker.ClusterImages(c)
	ch.rules = health.DefaultRules()
	ch.rng = rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	if ch.tracker, err = online.NewTracker(ch.images, ch.opt()); err != nil {
		return fmt.Errorf("tracker: %w", err)
	}
	warm, err := ch.tracker.Check()
	if err != nil {
		return fmt.Errorf("warm-up check: %w", err)
	}
	if !identified(warm.Findings, ch.inj) {
		return fmt.Errorf("warm-up check misses the injected %s", ch.inj.Scenario)
	}
	ch.last = warm.Result
	return nil
}

func (ch *churn) prepare() error { return nil }

// applyOps applies one round of namespace ops: half creates, a quarter
// unlinks and a quarter renames of live files into the churn's own
// directories.
func (ch *churn) applyOps() error {
	for i := 0; i < ch.ops; i++ {
		x := ch.rng.Intn(4)
		switch {
		case x < 2 || len(ch.live) == 0:
			p, err := ch.newPath()
			if err != nil {
				return err
			}
			if _, err := ch.c.Create(p, workload.SampleFileSize(ch.rng)); err != nil {
				return fmt.Errorf("create %s: %w", p, err)
			}
			ch.live = append(ch.live, p)
		case x == 2:
			j := ch.rng.Intn(len(ch.live))
			if err := ch.c.Unlink(ch.live[j]); err != nil {
				return fmt.Errorf("unlink %s: %w", ch.live[j], err)
			}
			ch.live[j] = ch.live[len(ch.live)-1]
			ch.live = ch.live[:len(ch.live)-1]
		default:
			j := ch.rng.Intn(len(ch.live))
			p, err := ch.newPath()
			if err != nil {
				return err
			}
			if err := ch.c.Rename(ch.live[j], p); err != nil {
				return fmt.Errorf("rename %s to %s: %w", ch.live[j], p, err)
			}
			ch.live[j] = p
		}
	}
	return nil
}

// newPath names the next file in the churn's current directory,
// opening a fresh directory every churnDirFiles names.
func (ch *churn) newPath() (string, error) {
	if ch.dirs == 0 || ch.dirFiles == churnDirFiles {
		ch.dirs++
		ch.dirFiles = 0
		if err := ch.c.MkdirAll(fmt.Sprintf("/churn/d%04d", ch.dirs)); err != nil {
			return "", fmt.Errorf("mkdir: %w", err)
		}
	}
	ch.dirFiles++
	ch.seq++
	return fmt.Sprintf("/churn/d%04d/c%07d", ch.dirs, ch.seq), nil
}

func (ch *churn) grade(fs []checker.Finding) []health.Grading {
	out := make([]health.Grading, len(fs))
	for i, f := range fs {
		out[i] = ch.rules.Grade(f)
	}
	return out
}

// verify checks one round: the injected fault is reported and every
// finding was graded.
func (ch *churn) verify(cr *online.CheckResult, graded []health.Grading) error {
	if !identified(cr.Findings, ch.inj) {
		return fmt.Errorf("round %d misses the injected %s", cr.Round, ch.inj.Scenario)
	}
	if len(graded) != len(cr.Findings) {
		return fmt.Errorf("graded %d of %d findings", len(graded), len(cr.Findings))
	}
	return nil
}

func (ch *churn) round() (roundTimes, error) {
	t0 := time.Now()
	if err := ch.applyOps(); err != nil {
		return roundTimes{}, fmt.Errorf("writes: %w", err)
	}
	t := roundTimes{write: time.Since(t0)}
	t1 := time.Now()
	cr, err := ch.tracker.Check()
	if err != nil {
		return t, fmt.Errorf("check: %w", err)
	}
	graded := ch.grade(cr.Findings)
	if err := ch.tracker.SaveState(ch.state); err != nil {
		return t, err
	}
	t.check = time.Since(t1)
	ch.last = cr.Result
	return t, ch.verify(cr, graded)
}

// finish checks that the tracker's last findings equal a cold
// checker.Run over the same images.
func (ch *churn) finish() (int, error) {
	cold, err := checker.Run(ch.images, ch.opt())
	if err != nil {
		return 1, fmt.Errorf("cold check: %w", err)
	}
	return 1, sameAsCold(ch.last, cold)
}

// sameAsCold compares the tracker's findings with a cold run's: the
// same graph (vertex count and stats) and, in canonical order, the same
// verdicts — kind, FID, field and repair plan. Scores, and the Detail
// text that prints them, may differ: the tracker warm-starts its ranks,
// which converge to the cold fixed point only within Epsilon.
func sameAsCold(onl, cold *checker.Result) error {
	if onl.Unified.N() != cold.Unified.N() {
		return fmt.Errorf("vertex count: online %d, cold %d", onl.Unified.N(), cold.Unified.N())
	}
	if !reflect.DeepEqual(onl.Stats, cold.Stats) {
		return fmt.Errorf("graph stats: online %+v, cold %+v", onl.Stats, cold.Stats)
	}
	of, cf := canonical(onl.Findings), canonical(cold.Findings)
	if len(of) != len(cf) {
		return fmt.Errorf("finding count: online %d, cold %d; only online: %s; only cold: %s",
			len(of), len(cf), missingFrom(cf, of), missingFrom(of, cf))
	}
	for i := range of {
		a, b := of[i], cf[i]
		if a.Kind != b.Kind || a.FID != b.FID || a.Field != b.Field || !reflect.DeepEqual(a.Repairs, b.Repairs) {
			return fmt.Errorf("finding %d: online %+v, cold %+v", i, a, b)
		}
	}
	return nil
}

// missingFrom lists the findings of b whose kind, FID and field a lacks.
func missingFrom(a, b []checker.Finding) string {
	type key struct {
		k   checker.FindingKind
		fid lustre.FID
		f   core.Field
	}
	have := map[key]bool{}
	for _, f := range a {
		have[key{f.Kind, f.FID, f.Field}] = true
	}
	var out []string
	for _, f := range b {
		if !have[key{f.Kind, f.FID, f.Field}] {
			out = append(out, fmt.Sprintf("%s %v score %.4f (%s)", f.Kind, f.FID, f.Score, f.Detail))
		}
	}
	if len(out) == 0 {
		return "none"
	}
	return strings.Join(out, ", ")
}

func canonical(fs []checker.Finding) []checker.Finding {
	out := append([]checker.Finding(nil), fs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.FID != b.FID {
			if a.FID.Seq != b.FID.Seq {
				return a.FID.Seq < b.FID.Seq
			}
			if a.FID.Oid != b.FID.Oid {
				return a.FID.Oid < b.FID.Oid
			}
			return a.FID.Ver < b.FID.Ver
		}
		return a.Field < b.Field
	})
	return out
}

// walk is one traced online round: the writes, then the tracker's feed
// update, check, grading and save, each under its own span.
func (ch *churn) walk(tr *tracer, lm layerValues) error {
	writeS, err := tr.do("lustre.write", false, ch.applyOps)
	if err != nil {
		return fmt.Errorf("writes: %w", err)
	}
	lm.add("lustre.write_s", writeS)

	var refreshed int
	updS, err := tr.do("online.update", true, func() (err error) {
		refreshed, err = ch.tracker.Update()
		return err
	})
	if err != nil {
		return fmt.Errorf("update: %w", err)
	}
	lm.add("online.update_s", updS)
	lm.add("online.inodes_refreshed", float64(refreshed))

	fallbacks := ch.tracker.Stats().WarmFallbacks
	var cr *online.CheckResult
	checkS, err := tr.do("online.check", true, func() (err error) {
		cr, err = ch.tracker.Check()
		return err
	})
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	lm.add("online.warm_fallbacks", float64(ch.tracker.Stats().WarmFallbacks-fallbacks))
	// Materialize has no entry point of its own: it is what Check spends
	// outside the update, build and rank stages it reports.
	lm.add("agg.materialize_s", checkS-(cr.TUpdate+cr.TGraph+cr.TRank).Seconds())
	edges := float64(cr.Graph.Fwd.NumEdges())
	if n := cr.Phases.Find("build"); n != nil {
		lm.add("graph.build_s", n.Seconds)
		lm.add("graph.edges_per_s", edges/n.Seconds)
	}
	lm.add("graph.csr_mib", float64(cr.Graph.MemoryBytes())/mib)
	iters := float64(cr.Rank.Iterations)
	lm.add("core.iterations", iters)
	if n := cr.Phases.Find("iterate"); n != nil {
		lm.add("core.rank_s", n.Seconds)
		lm.add("core.edge_updates_per_s", 2*edges*iters/n.Seconds)
	}
	if fs := cr.Rank.Frontier; fs != nil {
		lm.add("core.frontier_touched", float64(fs.Touched))
		lm.add("core.frontier_ratio", float64(fs.Touched)/(2*float64(cr.Graph.N())*iters))
	}
	if n := cr.Phases.Find("classify"); n != nil {
		lm.add("checker.classify_s", n.Seconds)
	}
	detS, _ := tr.do("core.detect", false, func() error {
		core.Detect(cr.Graph, cr.Rank, cr.Unified.Present, ch.opt().Core)
		return nil
	})
	lm.add("core.detect_s", detS)

	var graded []health.Grading
	gradeS, _ := tr.do("health.grade", true, func() error {
		graded = ch.grade(cr.Findings)
		return nil
	})
	lm.add("health.grade_s", gradeS)
	saveS, err := tr.do("online.save", true, func() error { return ch.tracker.SaveState(ch.state) })
	if err != nil {
		return err
	}
	lm.add("online.save_s", saveS)
	st, err := os.Stat(filepath.Join(ch.state, "tracker.snap"))
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	lm.add("online.snapshot_mib", float64(st.Size())/mib)
	ch.last = cr.Result
	_, err = tr.do("bench.verify", false, func() error { return ch.verify(cr, graded) })
	return err
}
