package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bench is one benchmark workload. The runner makes a fresh value
// for every setup repetition and keeps the last.
type bench interface {
	// setup builds the inputs from e.Seed; it is what setup_s times.
	setup(e env) error
	// prepare does the untimed per-run work the checks are verified
	// against (reference checks), after the last setup.
	prepare() error
	// round runs one closed-loop round — the workload's writes, if any,
	// then one check — and verifies the check's output. A non-nil error
	// is an errored check or a failed verification.
	round() (roundTimes, error)
	// finish verifies what needs the whole measured phase behind it. It
	// returns how many verification checks it attempted.
	finish() (int, error)
	// walk runs one traced round: each layer's public functions called
	// one at a time, each call under a span, layer values added to lm.
	walk(tr *tracer, lm layerValues) error
}

// roundTimes is one round's measured durations.
type roundTimes struct {
	check time.Duration
	write time.Duration // zero for workloads that only read
}

var workloads = map[string]func() bench{
	"offline-tcp":     func() bench { return &offline{k: 1} },
	"rank-rmat":       func() bench { return &rankRMAT{} },
	"online-churn":    func() bench { return &churn{} },
	"partitioned-tcp": func() bench { return &offline{k: 2} },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setUp runs e.Sizes.Setups fresh setups and keeps the last workload.
func setUp(e env, newW func() bench) (bench, []float64, error) {
	var (
		w     bench
		times []float64
	)
	for i := 0; i < max(e.Sizes.Setups, 1); i++ {
		w = nil
		runtime.GC()
		w = newW()
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if err := w.prepare(); err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	return w, times, nil
}

// measurement is one process's raw end-to-end samples. A child process
// prints it as JSON; the parent merges the children's.
type measurement struct {
	tally
	Checks  []float64 `json:"checks"`
	Writes  []float64 `json:"writes"`
	Setups  []float64 `json:"setups"`
	PeakMiB float64   `json:"peak_mib"`
	RSSNote string    `json:"rss_note"`
}

// merge pools another process's samples into m. The peak is the
// highest of the processes' peaks.
func (m *measurement) merge(o *measurement) {
	m.Checks = append(m.Checks, o.Checks...)
	m.Writes = append(m.Writes, o.Writes...)
	m.Setups = append(m.Setups, o.Setups...)
	m.PeakMiB = max(m.PeakMiB, o.PeakMiB)
	m.tally.add(o.tally)
	m.RSSNote = o.RSSNote
}

// measure sets up (e.Sizes.Setups times), resets the RSS high-water
// mark, runs rounds back to back for e.Seconds and verifies them.
func measure(e env, newW func() bench) (*measurement, error) {
	w, setups, err := setUp(e, newW)
	if err != nil {
		return nil, err
	}
	m := &measurement{Setups: setups, RSSNote: resetPeakRSS()}
	deadline := time.Now().Add(seconds(e.Seconds))
	for m.Attempted == 0 || time.Now().Before(deadline) {
		// Collect the previous round's garbage outside the timed window
		// so each check starts from the same heap state.
		runtime.GC()
		t, err := w.round()
		m.Attempted++
		if err != nil {
			m.fail("round %d: %v", m.Attempted, err)
		}
		if t.check > 0 {
			m.Checks = append(m.Checks, t.check.Seconds())
		}
		if t.write > 0 {
			m.Writes = append(m.Writes, t.write.Seconds())
		}
	}
	if m.PeakMiB, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	n, err := w.finish()
	m.Attempted += n
	if err != nil {
		m.fail("final verification: %v", err)
	}
	return m, nil
}

// runChildren is the untraced run spread over n child processes, each
// setting up once and measuring e.Seconds/n, one after another. Check
// speed on a shared host drifts over seconds and differs between
// processes; pooling the samples of several processes steadies the
// medians, and their n setups give setup_s its median.
func runChildren(ctx context.Context, e env, name string, n int, stderr io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	all := &measurement{}
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, self,
			"--child", "--workload", name,
			"--seed", strconv.FormatInt(e.Seed, 10),
			"--seconds", strconv.FormatFloat(e.Seconds/float64(n), 'g', -1, 64),
			"--out", e.Out)
		cmd.Stderr = stderr
		// A child dies with its parent, so no measuring process outlives
		// a killed run.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("child %d: %w", i+1, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var m measurement
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
			return nil, fmt.Errorf("child %d: %w", i+1, err)
		}
		all.merge(&m)
	}
	return endToEndReport(name, all, n)
}

// endToEndReport folds the samples into the end-to-end metrics.
func endToEndReport(name string, m *measurement, procs int) (*report, error) {
	if len(m.Checks) == 0 {
		return nil, fmt.Errorf("no check completed")
	}
	rep := &report{Workload: name, tally: m.tally}
	tail, pct := tailPercentile(m.Checks)
	rep.set("check_s", median(m.Checks), "s")
	rep.set("check_tail_s", tail, "s")
	rep.set("peak_rss_mib", m.PeakMiB, "MiB")
	rep.set("setup_s", median(m.Setups), "s")
	rep.set("ok_ratio", float64(m.Attempted-m.Failed)/float64(m.Attempted), "ratio")
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d measuring process(es); check_tail_s is p%.1f of %d check samples (%d beyond it)",
			procs, pct, len(m.Checks), tailBeyond(len(m.Checks))),
		fmt.Sprintf("setup_s is the median of %d setups: %s", len(m.Setups), fmtSeconds(m.Setups)),
		m.RSSNote+"; the highest over the processes")
	if len(m.Writes) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("write: median %.6f s over %d rounds of writes", median(m.Writes), len(m.Writes)))
	}
	return rep, nil
}

// runTraced is the traced run: after one setup it runs untraced rounds
// for a third of e.Seconds (the reference check_s and outputs), then
// traced walks for the rest, and reports every per-layer metric.
func runTraced(e env, name string, newW func() bench) (*report, error) {
	one := e
	one.Sizes.Setups = 1
	w, _, err := setUp(one, newW)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: name, Traced: true}

	var checks []float64
	start := time.Now()
	for len(checks) < 3 || time.Since(start) < seconds(e.Seconds/3) {
		runtime.GC()
		t, err := w.round()
		rep.Attempted++
		if err != nil {
			rep.fail("untraced round %d: %v", rep.Attempted, err)
		}
		if t.check > 0 {
			checks = append(checks, t.check.Seconds())
		}
		if rep.Attempted >= 3 && len(checks) == 0 {
			return nil, fmt.Errorf("no untraced check completed")
		}
	}
	checkS := median(checks)

	tr := newTracer()
	lm := layerValues{}
	deadline := start.Add(seconds(e.Seconds))
	for walks := 0; walks < 2 || time.Now().Before(deadline); walks++ {
		runtime.GC()
		tr.startWalk()
		err := w.walk(tr, lm)
		wall, top, stage := tr.endWalk()
		rep.Attempted++
		if err != nil {
			rep.fail("traced walk %d: %v", walks+1, err)
			continue
		}
		lm.add("trace.walk_s", wall)
		lm.add("trace.attributed_s", stage)
		lm.add("trace.overhead_s", wall-top)
	}
	n, err := w.finish()
	rep.Attempted += n
	if err != nil {
		rep.fail("final verification: %v", err)
	}

	lm.add("trace.check_s", checkS)
	if a, ok := lm["trace.attributed_s"]; ok {
		lm.add("trace.unattributed_s", checkS-median(a))
	}
	if o, ok := lm["trace.overhead_s"]; ok {
		lm.add("trace.overhead_ratio", median(o)/checkS)
	}
	for _, m := range perLayer {
		rep.set(m.Name, lm.value(m), m.Unit)
		if _, ok := lm[m.Name]; !ok {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: layer not exercised by %s, reported as 0", m.Name, name))
		}
	}
	path, err := tr.write(e.Out, name, e.Seed)
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("untraced check_s %.6f s over %d checks; %d traced walks; spans in %s",
			checkS, len(checks), len(lm["trace.walk_s"]), path))
	return rep, nil
}

// layerValues collects per-walk samples of the per-layer metrics.
type layerValues map[string][]float64

func (lm layerValues) add(name string, v float64) { lm[name] = append(lm[name], v) }

// value folds one metric's samples: a sum for counters summed over
// the traced phase, the median otherwise; 0 when the workload never
// exercised the layer.
func (lm layerValues) value(m layerMetric) float64 {
	vs := lm[m.Name]
	if len(vs) == 0 {
		return 0
	}
	if m.Sum {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s
	}
	return median(vs)
}

// layerMetric is one per-layer metric of the catalog.
type layerMetric struct {
	Name string
	Unit string
	// Sum reports the total over the traced phase instead of the
	// per-walk median.
	Sum bool
}

// perLayer is the per-layer catalog, in BENCHMARK.json order. Every
// traced run reports all of them.
var perLayer = []layerMetric{
	{Name: "scanner.scan_s", Unit: "s"},
	{Name: "scanner.mb_per_s", Unit: "MB/s"},
	{Name: "scanner.inodes", Unit: "count"},
	{Name: "wire.encode_s", Unit: "s"},
	{Name: "wire.decode_s", Unit: "s"},
	{Name: "wire.transfer_s", Unit: "s"},
	{Name: "wire.bytes", Unit: "B"},
	{Name: "wire.frames", Unit: "count"},
	{Name: "wire.rank_bytes", Unit: "B"},
	{Name: "agg.merge_s", Unit: "s"},
	{Name: "agg.fids", Unit: "count"},
	{Name: "agg.fids_per_s", Unit: "1/s"},
	{Name: "agg.materialize_s", Unit: "s"},
	{Name: "graph.build_s", Unit: "s"},
	{Name: "graph.edges_per_s", Unit: "1/s"},
	{Name: "graph.csr_mib", Unit: "MiB"},
	{Name: "graph.partition_s", Unit: "s"},
	{Name: "graph.cut_edges", Unit: "count"},
	{Name: "core.rank_s", Unit: "s"},
	{Name: "core.iterations", Unit: "count"},
	{Name: "core.edge_updates_per_s", Unit: "1/s"},
	{Name: "core.detect_s", Unit: "s"},
	{Name: "core.supersteps", Unit: "count"},
	{Name: "core.superstep_s", Unit: "s"},
	{Name: "core.frontier_touched", Unit: "count"},
	{Name: "core.frontier_ratio", Unit: "ratio"},
	{Name: "online.warm_fallbacks", Unit: "count", Sum: true},
	{Name: "online.update_s", Unit: "s"},
	{Name: "online.inodes_refreshed", Unit: "count"},
	{Name: "online.save_s", Unit: "s"},
	{Name: "online.snapshot_mib", Unit: "MiB"},
	{Name: "lustre.write_s", Unit: "s"},
	{Name: "health.grade_s", Unit: "s"},
	{Name: "checker.classify_s", Unit: "s"},
	{Name: "repair.apply_s", Unit: "s"},
	{Name: "repair.applied", Unit: "count"},
	{Name: "trace.check_s", Unit: "s"},
	{Name: "trace.walk_s", Unit: "s"},
	{Name: "trace.attributed_s", Unit: "s"},
	{Name: "trace.unattributed_s", Unit: "s"},
	{Name: "trace.overhead_s", Unit: "s"},
	{Name: "trace.overhead_ratio", Unit: "ratio"},
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples lie beyond the reported tail: ten,
// or none when the run took fewer than eleven samples.
func tailBeyond(n int) int {
	if n > 10 {
		return 10
	}
	return 0
}

// tailPercentile returns the highest percentile of xs with at least ten
// samples beyond it — the (n-10)th smallest of n — and that percentile
// (share of samples at or below it). With fewer than eleven samples it
// falls back to the largest sample, with fewer than ten beyond it.
func tailPercentile(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	i := n - 1 - tailBeyond(n)
	return s[i], 100 * float64(i+1) / float64(n)
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// RSS high-water mark, so VmHWM afterwards covers only the measured
// phase. It returns a note saying which mark peak_rss_mib reads.
func resetPeakRSS() string {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Sprintf("peak_rss_mib: could not reset the high-water mark (%v); it includes setup", err)
	}
	return "peak_rss_mib: VmHWM over the measured phase (reset after setup via /proc/self/clear_refs)"
}

// peakRSSMiB reads the process's RSS high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}
