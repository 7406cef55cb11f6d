package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/workload"
)

// smokeSizes keeps every workload to a second or two. 12,000 MDT inodes
// still age into more than eight directories, so the eight Fig. 7
// victims can live in distinct ones.
var smokeSizes = sizes{MDTInodes: 12_000, RMATScale: 10, ChurnOps: 16, Setups: 2}

func smokeEnv(t *testing.T) env {
	return env{Seed: 3, Seconds: 0.3, Out: t.TempDir(), State: t.TempDir(), Sizes: smokeSizes, Workers: 2}
}

// runMeasured is the untraced run in the test process.
func runMeasured(e env, name string, newW func() bench) (*report, error) {
	m, err := measure(e, newW)
	if err != nil {
		return nil, err
	}
	return endToEndReport(name, m, 1)
}

// endToEnd is the BENCHMARK.json end-to-end catalog.
var endToEnd = []string{"check_s", "check_tail_s", "peak_rss_mib", "setup_s", "ok_ratio"}

func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep, err := runMeasured(smokeEnv(t), name, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
			}
			for _, m := range endToEnd {
				if v := rep.Metrics[m].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("reported %d end-to-end metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	// The layers each workload must exercise in its traced run.
	want := map[string][]string{
		"offline-tcp": {"scanner.scan_s", "wire.bytes", "agg.merge_s", "graph.build_s",
			"core.rank_s", "core.detect_s", "checker.classify_s", "repair.applied"},
		"partitioned-tcp": {"scanner.scan_s", "graph.partition_s", "graph.cut_edges",
			"core.supersteps", "core.superstep_s", "wire.rank_bytes", "checker.classify_s"},
		"rank-rmat": {"graph.build_s", "core.rank_s", "core.iterations", "core.detect_s"},
		"online-churn": {"lustre.write_s", "online.update_s", "online.inodes_refreshed",
			"agg.materialize_s", "graph.build_s", "core.rank_s", "core.frontier_touched",
			"checker.classify_s", "online.save_s", "online.snapshot_mib"},
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep, err := runTraced(smokeEnv(t), name, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("failed %d of %d: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("reported %d per-layer metrics, want %d", len(rep.Metrics), len(perLayer))
			}
			for _, m := range append(want[name], "trace.walk_s", "trace.check_s", "trace.attributed_s") {
				if v := rep.Metrics[m].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
		})
	}
}

// TestOfflineMissingFindingFails is the negative case: a check whose
// output lost an expected finding must count as failed.
func TestOfflineMissingFindingFails(t *testing.T) {
	e := smokeEnv(t)
	o := &offline{k: 1}
	if err := o.setup(e); err != nil {
		t.Fatal(err)
	}
	if err := o.prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := checker.Run(o.images, o.opt(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.verify(res); err != nil {
		t.Fatalf("untouched check fails verification: %v", err)
	}
	for _, inj := range o.injs {
		var kept []checker.Finding
		for _, f := range res.Findings {
			if !identified([]checker.Finding{f}, inj) {
				kept = append(kept, f)
			}
		}
		cut := *res
		cut.Findings = kept
		if err := o.verify(&cut); err == nil {
			t.Errorf("check without the finding for %s passed verification", inj.Scenario)
		}
	}
	// A changed score alone breaks byte identity with the reference.
	bent := *res
	bent.Findings = append([]checker.Finding(nil), res.Findings...)
	bent.Findings[0].Score += 1e-12
	if err := o.verify(&bent); err == nil {
		t.Error("check with a changed score passed verification")
	}
}

// dropFirst wraps a workload so every check loses its first finding
// before verification.
type dropFirst struct{ *offline }

func (d dropFirst) round() (roundTimes, error) {
	res, err := checker.Run(d.images, d.opt(d.k))
	if err != nil {
		return roundTimes{}, err
	}
	res.Findings = res.Findings[1:]
	return roundTimes{check: 1}, d.verify(res)
}

func TestRunnerCountsFailedChecks(t *testing.T) {
	e := smokeEnv(t)
	e.Sizes.Setups = 1
	rep, err := runMeasured(e, "offline-tcp", func() bench { return dropFirst{&offline{k: 1}} })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != rep.Attempted || rep.Metrics["ok_ratio"].Value != 0 {
		t.Fatalf("attempted %d, failed %d, ok_ratio %v: every check should fail",
			rep.Attempted, rep.Failed, rep.Metrics["ok_ratio"].Value)
	}
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || string(last["correct"]) != "false" {
		t.Fatalf("result line %s: want exactly correct/attempted/failed/metrics with correct=false", lines[len(lines)-1])
	}
}

func TestRMATVerifyCatchesChangedRanks(t *testing.T) {
	e := smokeEnv(t)
	r := &rankRMAT{}
	if err := r.setup(e); err != nil {
		t.Fatal(err)
	}
	_, res, rep := r.check()
	if err := r.verify(summarize(res, rep)); err != nil {
		t.Fatalf("first check: %v", err)
	}
	_, res, rep = r.check()
	if err := r.verify(summarize(res, rep)); err != nil {
		t.Fatalf("second check: %v", err)
	}
	res.IDRank[0] += 1e-13
	if err := r.verify(summarize(res, rep)); err == nil {
		t.Fatal("a rank vector changed by 1e-13 passed verification")
	}
}

func TestChurnVerifyCatchesMissingFault(t *testing.T) {
	e := smokeEnv(t)
	ch := &churn{}
	if err := ch.setup(e); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.round(); err != nil {
		t.Fatal(err)
	}
	cold, err := checker.Run(ch.images, ch.opt())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsCold(ch.last, cold); err != nil {
		t.Fatalf("tracker vs cold: %v", err)
	}
	var kept []checker.Finding
	for _, f := range ch.last.Findings {
		if !identified([]checker.Finding{f}, ch.inj) {
			kept = append(kept, f)
		}
	}
	cut := *ch.last
	cut.Findings = kept
	if err := sameAsCold(&cut, cold); err == nil {
		t.Fatal("tracker findings without the injected fault matched the cold run")
	}
}

func TestPickVictimsNeedsDistinctDirectories(t *testing.T) {
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: stripeSize, StripeCount: -1, Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	alive, err := workload.Age(c, workload.AgeSpec{TargetMDTInodes: 2000, ChurnFraction: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pickVictims(c, alive, inject.NumScenarios, 1); err == nil {
		t.Fatal("picked eight victims from a cluster of two directories")
	}
	a, err := pickVictims(c, alive, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := pickVictims(c, alive, 2, 7)
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("victims not deterministic: %v vs %v", a, b)
	}
}

func TestTailPercentile(t *testing.T) {
	var xs []float64
	for i := 40; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, p := tailPercentile(xs)
	if v != 30 || p != 75 {
		t.Fatalf("tail of 1..40 = %v at p%v, want 30 at p75 (ten samples beyond)", v, p)
	}
	if v, _ := tailPercentile([]float64{3, 1, 2}); v != 3 {
		t.Fatalf("tail of three samples = %v, want the max", v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the code reports in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, code runs %v", names, workloadNames())
	}
	units := map[string]string{"check_s": "s", "check_tail_s": "s", "peak_rss_mib": "MiB", "setup_s": "s", "ok_ratio": "ratio"}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, code reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for _, m := range b.EndToEnd {
		if units[m.Name] != m.Unit {
			t.Errorf("end-to-end %s in %s, code reports %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, code reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer %d: %s in %s, code reports %s in %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}

// TestMeasurementMerge covers the parent's pooling of child processes'
// samples, through the JSON the children print.
func TestMeasurementMerge(t *testing.T) {
	kids := []measurement{
		{Checks: []float64{1, 2}, Setups: []float64{5}, PeakMiB: 10, tally: tally{Attempted: 2}},
		{Checks: []float64{3}, Writes: []float64{0.5}, Setups: []float64{7}, PeakMiB: 30,
			tally: tally{Attempted: 2, Failed: 1, Failures: []string{"x"}}},
	}
	all := &measurement{}
	for _, k := range kids {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var m measurement
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		all.merge(&m)
	}
	rep, err := endToEndReport("w", all, len(kids))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 4 || rep.Failed != 1 || len(rep.Failures) != 1 || rep.Metrics["check_s"].Value != 2 ||
		rep.Metrics["setup_s"].Value != 6 || rep.Metrics["peak_rss_mib"].Value != 30 ||
		rep.Metrics["ok_ratio"].Value != 0.75 {
		t.Fatalf("merged report %+v", rep)
	}
}
