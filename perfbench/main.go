// Command perfbench is picola's end-to-end, per-layer benchmark.
//
// It is run through run.sh, which builds cmd/tables, cmd/batch,
// cmd/picola and this program from the checkout, from the repository
// root:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it sets the workload up several times, then runs the
// workload's shipped command as child processes, one at a time with -j 2,
// pass after pass until --seconds have elapsed, and reports the
// end-to-end metrics (medians over set-ups and passes). With --trace 1
// it instead runs the same work in process and sequentially, timing the
// calls into each layer's public functions from outside, and reports the
// per-layer metrics. Every output is checked; the last line of standard
// output is one JSON object, and a correctness mismatch exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// jobs is the -j every shipped command runs with: the core count of the
// 2-core machine the benchmark was defined on, fixed so that runs on
// other machines measure the same fan-out.
const jobs = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one invocation reports.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's environment.
type bench struct {
	bin     string // directory holding the built commands
	work    string // scratch directory for inputs and stores, removed at exit
	seed    int64
	seconds time.Duration
	log     io.Writer // per-pass diagnostics

	attempted, failed int
	errs              []string
}

// fail records a correctness failure of one attempted instance.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.errs) < 20 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// workload is one named input set. setup prepares the inputs (and is
// what setup_s times); pass runs the shipped command over them once;
// traced runs the same work in process. Each checks its own outputs
// through bench.fail.
type workload interface {
	setup(b *bench, rep int) error
	setupReps() int
	// minPasses is the fewest timed passes a --trace 0 run makes.
	minPasses() int
	pass(b *bench) (passStat, error)
	traced(b *bench, tr *tracer) (*layers, error)
	// crossCheck compares the in-process results of the last traced
	// run with the command's.
	crossCheck(b *bench) error
}

var workloads = map[string]func() workload{
	"table1":      func() workload { return &table1{} },
	"corpus_cold": func() workload { return &corpus{} },
	"corpus_warm": func() workload { return &corpus{warm: true} },
	"scale":       func() workload { return &scale{} },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1, corpus_cold, corpus_warm or scale")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from the commands; 1: per-layer metrics from a traced in-process run")
	root := fs.String("root", ".", "repository root")
	bin := fs.String("bin", "", "directory holding the built tables, batch and picola commands")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	b := &bench{bin: *bin, work: work, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, log: stderr}

	w := mk()
	var ms map[string]metric
	if *trace == 0 {
		ms, err = measure(b, w)
	} else {
		ms, err = measureTraced(b, w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out := outcome{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms}
	printTable(stdout, *name, *seed, *trace, out)
	for _, e := range b.errs {
		fmt.Fprintln(stderr, "perfbench: mismatch:", e)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// measure is the --trace 0 run: set up setupReps times, then run passes
// for the measuring time (at least minPasses), and report medians.
func measure(b *bench, w workload) (map[string]metric, error) {
	var setups []float64
	for rep := 0; rep < w.setupReps(); rep++ {
		t0 := time.Now()
		if err := w.setup(b, rep); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var passes []passStat
	start := time.Now()
	for len(passes) < w.minPasses() || time.Since(start) < b.seconds {
		ps, err := w.pass(b)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
	}
	var wall, cpu, rss []float64
	fmt.Fprintf(b.log, "perfbench: set-ups %.4g s\n", setups)
	for _, ps := range passes {
		fmt.Fprintf(b.log, "perfbench: pass wall %.4g s cpu %.4g s rss %d KB\n", ps.wall.Seconds(), ps.cpu.Seconds(), ps.maxRSSKB)
		wall = append(wall, ps.wall.Seconds())
		cpu = append(cpu, ps.cpu.Seconds())
		rss = append(rss, float64(ps.maxRSSKB)/1024)
		if ps.cubes != passes[0].cubes {
			b.fail("cubes_total differs between passes: %d and %d", passes[0].cubes, ps.cubes)
		}
	}
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {median(wall), "s"},
		"cpu_s":       {median(cpu), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"cubes_total": {float64(passes[0].cubes), "count"},
	}, nil
}

// measureTraced is the --trace 1 run: set up once, make one discarded
// in-process run, then alternate untraced and traced in-process runs for the measuring time (at least one
// pair), verify the last traced run's encodings and cross-check its
// results against the command's, and report the per-layer metrics of
// the median traced run (by wall), so its self-times still sum to its
// wall.
func measureTraced(b *bench, w workload) (map[string]metric, error) {
	if err := w.setup(b, 0); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// A discarded first run grows the heap and faults in the pages, so
	// that neither side of the first pair pays for it.
	if _, err := w.traced(b, nil); err != nil {
		return nil, err
	}
	var untraced []float64
	var runs []*layers
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < b.seconds {
		l, err := w.traced(b, nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, l.wall.Seconds())
		l, err = w.traced(b, &tracer{})
		if err != nil {
			return nil, err
		}
		runs = append(runs, l)
	}
	last := runs[len(runs)-1]
	last.verify(b)
	if err := w.crossCheck(b); err != nil {
		return nil, err
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].wall < runs[j].wall })
	mid := runs[(len(runs)-1)/2]
	ms := make(map[string]metric)
	for _, m := range layerMetrics {
		ms[m.name] = metric{mid.v[m.name], m.unit}
	}
	ms["trace_overhead_ratio"] = metric{mid.wall.Seconds() / median(untraced), "ratio"}
	return ms, nil
}

// printTable writes the human-readable report, one metric a line.
func printTable(w io.Writer, name string, seed int64, trace int, out outcome) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d trace=%d jobs=%d attempted=%d failed=%d failed_ratio=%.4g correct=%v\n",
		name, seed, trace, jobs, out.Attempted, out.Failed, ratio(out.Failed, out.Attempted), out.Correct)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the median of vs (the mean of the middle two for an
// even count); 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// lines splits command output into trimmed non-empty lines.
func lines(out []byte) []string {
	var ls []string
	for _, l := range strings.Split(string(out), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			ls = append(ls, l)
		}
	}
	return ls
}
