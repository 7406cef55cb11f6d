// Command perfbench is the FaultyRank benchmark. One invocation runs one
// named workload from a single closed-loop client: it builds the
// workload's inputs from --seed, runs checks back to back for --seconds,
// verifies every check's output, and prints the end-to-end metrics
// (--trace 0) or, from a separate traced run that drives each layer's
// public functions one at a time, the per-layer metrics (--trace 1).
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 33, "failed": 0, "metrics": {...}}
//
// Lines before it carry the host fingerprint, the tail percentile and
// sample counts, and the fail ratio. See README.md for every metric's
// definition and source.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// watchdog bounds a whole invocation, so a wedged check ends the run
// within the 180 s a run may take.
const watchdog = 170 * time.Second

func main() {
	t := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: still running after %v\n", watchdog)
		os.Exit(3)
	})
	code := realMain(os.Args[1:], os.Stdout, os.Stderr)
	t.Stop()
	os.Exit(code)
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed (same seed, same inputs)")
	seconds := fs.Float64("seconds", 15, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer walk instead of the end-to-end measurement")
	out := fs.String("out", ".bench_build/perfbench", "directory for traces and temporary tracker state")
	child := fs.Bool("child", false, "measure in this process and print the raw samples (used by the parent run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := env{
		Seed:    *seed,
		Seconds: *seconds,
		Out:     *out,
		Sizes:   fullSizes,
		Workers: runtime.NumCPU(),
	}
	env.State = filepath.Join(env.Out, fmt.Sprintf("state-%d", os.Getpid()))
	if err := os.MkdirAll(env.Out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(env.State)

	if *child {
		env.Sizes.Setups = 1
		m, err := measure(env, newW)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(m); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}

	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = runTraced(env, *name, newW)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), watchdog-10*time.Second)
		rep, err = runChildren(ctx, env, *name, env.Sizes.Setups, stderr)
		cancel()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.Host = fingerprint()
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// env is what every workload receives: the seed, the measured-phase
// length and the input sizes.
type env struct {
	Seed    int64
	Seconds float64
	Out     string
	// State is the online tracker's temporary state directory, removed
	// when the run ends.
	State string
	Sizes sizes
	// Workers is the checker's worker budget and GOMAXPROCS (nproc).
	Workers int
}

// sizes fixes the inputs. fullSizes is the benchmark; the tests run
// smokeSizes.
type sizes struct {
	// MDTInodes is the aged cluster's MDT inode target (workload.Age).
	MDTInodes int64
	// RMATScale is log2 of the R-MAT vertex count (edge factor 8).
	RMATScale int
	// ChurnOps is the number of namespace ops per online round.
	ChurnOps int
	// Setups is how many times a run sets its inputs up; setup_s is
	// the median. The end-to-end run measures in as many child
	// processes, one setup each.
	Setups int
}

var fullSizes = sizes{MDTInodes: 25_000, RMATScale: 16, ChurnOps: 16, Setups: 3}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts attempted and failed checks.
type tally struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Failures describes the first few failed checks.
	Failures []string `json:"failures"`
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Failures) < 8 {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, f := range o.Failures {
		if len(t.Failures) < 8 {
			t.Failures = append(t.Failures, f)
		}
	}
}

// report is one run's outcome.
type report struct {
	tally
	Workload string
	Traced   bool
	Metrics  map[string]metric
	// Notes are human-readable lines printed before the result line.
	Notes []string
	Host  map[string]string
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the human-readable lines and, last, the result object.
func (r *report) print(w io.Writer) error {
	keys := make([]string, 0, len(r.Host))
	for k := range r.Host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var host []string
	for _, k := range keys {
		host = append(host, fmt.Sprintf("%s=%q", k, r.Host[k]))
	}
	mode := "end-to-end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s %s\n", r.Workload, mode)
	fmt.Fprintf(w, "host: %s\n", strings.Join(host, " "))
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "checks: attempted=%d failed=%d fail_ratio=%.4f\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
