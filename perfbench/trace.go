package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"

	"picola/internal/core"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/obs"
	"picola/internal/verify"
)

// layerMetrics is the per-layer metric set every --trace 1 run reports,
// in report order. Layers a workload does not run report 0.
var layerMetrics = []struct{ name, unit string }{
	{"benchgen.generate_s", "s"},
	{"symbolic.build_s", "s"},
	{"symbolic.minimize_s", "s"},
	{"symbolic.constraints_s", "s"},
	{"symbolic.constraints", "count"},
	{"symbolic.cover_cubes", "count"},
	{"enc.encode_s", "s"},
	{"enc.evaluations", "count"},
	{"enc.incomplete", "count"},
	{"nova.encode_s", "s"},
	{"consfile.parse_s", "s"},
	{"core.encode_s", "s"},
	{"core.restart_self_s", "s"},
	{"core.column_s", "s"},
	{"core.polish_s", "s"},
	{"core.final_polish_s", "s"},
	{"core.exact_polish_s", "s"},
	{"core.other_s", "s"},
	{"core.columns", "count"},
	{"core.estimates", "count"},
	{"core.dichotomy_scans", "count"},
	{"core.classify.memo_hits", "count"},
	{"core.classify.memo_misses", "count"},
	{"core.polish.carried", "count"},
	{"core.encode_s.n16", "s"},
	{"core.encode_s.n32", "s"},
	{"core.encode_s.n64", "s"},
	{"core.encode_s.n128", "s"},
	{"core.encode_s.n256", "s"},
	{"core.encode_s.n512", "s"},
	{"core.encode_s.n1024", "s"},
	{"eval.evaluate_s", "s"},
	{"eval.cache.hits", "count"},
	{"eval.cache.misses", "count"},
	{"eval.cache.hit_ratio", "ratio"},
	{"eval.cache.evictions", "count"},
	{"eval.satisfied_shortcut", "count"},
	{"espresso.minimize", "count"},
	{"espresso.exact_minimize", "count"},
	{"evalstore.load_s", "s"},
	{"eval.cache.export_s", "s"},
	{"evalstore.append_s", "s"},
	{"evalstore.compact_s", "s"},
	{"evalstore.loaded_entries", "count"},
	{"evalstore.appended_entries", "count"},
	{"evalstore.compacted_entries", "count"},
	{"evalstore.bytes_written", "bytes"},
	{"traced.wall_s", "s"},
	{"unattributed_s", "s"},
	{"instance_p50_ms", "ms"},
	{"instance_tail_ms", "ms"},
	{"instance_tail_pct", "%"},
	{"instances", "count"},
}

// selfTimes are the layer self-times that, with unattributed_s, sum to
// traced.wall_s. core.encode_s is their core.* parent and is not summed.
var selfTimes = []string{
	"benchgen.generate_s",
	"symbolic.build_s", "symbolic.minimize_s", "symbolic.constraints_s",
	"enc.encode_s", "nova.encode_s", "consfile.parse_s",
	"core.restart_self_s", "core.column_s", "core.polish_s",
	"core.final_polish_s", "core.exact_polish_s", "core.other_s",
	"eval.evaluate_s",
	"evalstore.load_s", "eval.cache.export_s", "evalstore.append_s", "evalstore.compact_s",
}

// counters are the obs.Default counters whose deltas over a run are
// reported under the same names.
var counters = []string{
	"core.columns", "core.estimates", "core.dichotomy_scans",
	"core.classify.memo_hits", "core.classify.memo_misses", "core.polish.carried",
	"eval.cache.hits", "eval.cache.misses", "eval.cache.evictions",
	"eval.satisfied_shortcut", "espresso.minimize", "espresso.exact_minimize",
}

// layers is one in-process run: the time spent in each layer's calls,
// counts, per-instance walls, and the encodings to verify afterwards.
type layers struct {
	tr       *tracer
	workers  int  // core and eval Workers; 1 for traced runs
	bySize   bool // also add each encode to core.encode_s.n<symbols> (scale)
	start    time.Time
	wall     time.Duration
	v        map[string]float64
	counter0 map[string]int64 // obs.Default counters at the start
	inst     []time.Duration
	checks   []check
}

// check is one encoding to verify once the run's clock has stopped.
type check struct {
	name string
	p    *face.Problem
	e    *face.Encoding
}

func newLayers(tr *tracer) *layers {
	l := &layers{tr: tr, workers: 1,
		v: map[string]float64{}, counter0: obs.Default.Snapshot().Counters}
	l.start = time.Now()
	return l
}

// timed runs f and adds its wall to the named layer.
func (l *layers) timed(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	l.v[name] += time.Since(t0).Seconds()
	return err
}

// encode runs one core encode and splits its wall into core's stages by
// the spans core emitted to the tracer. Untraced, it all goes to
// core.other_s.
func (l *layers) encode(p *face.Problem, o core.Options) (*core.Result, error) {
	o.Workers = l.workers
	if l.tr != nil {
		l.tr.reset()
		o.Trace = l.tr
	}
	t0 := time.Now()
	res, err := core.EncodeContext(context.Background(), p, o)
	d := time.Since(t0).Seconds()
	l.v["core.encode_s"] += d
	if l.bySize && slices.Contains(scaleSizes, p.N()) {
		l.v[fmt.Sprintf("core.encode_s.n%d", p.N())] += d
	}
	if t := l.tr; t != nil {
		l.v["core.restart_self_s"] += t.restart - t.column - t.polish
		l.v["core.column_s"] += t.column
		l.v["core.polish_s"] += t.polish
		l.v["core.final_polish_s"] += t.finalPolish
		l.v["core.exact_polish_s"] += t.exactPolish
		d -= t.restart + t.finalPolish + t.exactPolish
	}
	l.v["core.other_s"] += d
	return res, err
}

// verifyLater queues an encoding for CheckEncoding after the run.
func (l *layers) verifyLater(name string, p *face.Problem, e *face.Encoding) {
	l.checks = append(l.checks, check{name, p, e})
}

// finish stops the run's clock and derives the run-wide metrics.
func (l *layers) finish() {
	l.wall = time.Since(l.start)
	end := obs.Default.Snapshot().Counters
	for _, c := range counters {
		l.v[c] = float64(end[c] - l.counter0[c])
	}
	if n := l.v["eval.cache.hits"] + l.v["eval.cache.misses"]; n > 0 {
		l.v["eval.cache.hit_ratio"] = l.v["eval.cache.hits"] / n
	}
	l.v["traced.wall_s"] = l.wall.Seconds()
	sum := 0.0
	for _, n := range selfTimes {
		sum += l.v[n]
	}
	l.v["unattributed_s"] = l.wall.Seconds() - sum
	ms := make([]float64, len(l.inst))
	for i, d := range l.inst {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	l.v["instances"] = float64(len(ms))
	l.v["instance_p50_ms"] = median(ms)
	// The tail is the highest percentile with at least ten samples
	// beyond it; with ten or fewer samples there is none.
	if n := len(ms); n > 10 {
		l.v["instance_tail_ms"] = ms[n-11]
		l.v["instance_tail_pct"] = 100 * float64(n-10) / float64(n)
	}
}

// verify checks every queued encoding with internal/verify at the
// minimum code length, outside any timed interval.
func (l *layers) verify(b *bench) {
	for _, c := range l.checks {
		b.attempted++
		if rep := verify.CheckEncoding(c.p, c.e, verify.Options{RequireMinLength: true}); !rep.Ok() {
			b.fail("%s: %v", c.name, rep.Err())
		}
	}
}

// tracer folds core's spans into stage durations (seconds) for the
// current encode call. Polish spans after the select event are the
// winner's final polish, which runs outside every restart span. It
// keeps no reference to an event's Attrs, which the obs.Tracer contract
// forbids retaining. Core runs with Workers 1 under it, so spans arrive
// one at a time and need no lock.
type tracer struct {
	selected                 bool
	restart, column, polish  float64
	finalPolish, exactPolish float64
}

func (t *tracer) reset() { *t = tracer{} }

// Emit implements obs.Tracer.
func (t *tracer) Emit(e obs.Event) {
	if e.Kind == obs.KindEvent {
		if e.Stage == "select" {
			t.selected = true
		}
		return
	}
	d := e.DurMS / 1e3
	switch e.Stage {
	case "restart":
		t.restart += d
	case "column":
		t.column += d
	case "polish":
		if t.selected {
			t.finalPolish += d
		} else {
			t.polish += d
		}
	case "exact-polish":
		t.exactPolish += d
	}
}

// dirState is a stat of every file in a directory, for bytes_written.
type dirState map[string]fileState

type fileState struct {
	ino   uint64
	size  int64
	mtime time.Time
}

func statDir(dir string) dirState {
	st := dirState{}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil || !fi.Mode().IsRegular() {
			continue
		}
		fs := fileState{size: fi.Size(), mtime: fi.ModTime()}
		if s, ok := fi.Sys().(*syscall.Stat_t); ok {
			fs.ino = s.Ino
		}
		st[e.Name()] = fs
	}
	return st
}

// written returns the bytes of files created, replaced or grown between
// two stats of one directory.
func written(before, after dirState) int64 {
	var n int64
	for name, a := range after {
		b, ok := before[name]
		switch {
		case !ok || a.ino != b.ino:
			n += a.size // created, or replaced by rename
		case a.size > b.size:
			n += a.size - b.size
		case !a.mtime.Equal(b.mtime):
			n += a.size // rewritten in place
		}
	}
	return n
}

// encodeEval encodes p with core and evaluates the encoding, both
// against memo, and returns the encoding and its cube total.
func (l *layers) encodeEval(p *face.Problem, memo *eval.Cache) (*face.Encoding, int, error) {
	res, err := l.encode(p, core.Options{Cache: memo})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", p.Name, err)
	}
	k, err := l.evaluate(p, res.Encoding, eval.Options{Cache: memo})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", p.Name, err)
	}
	return res.Encoding, k, nil
}

// evaluate scores one encoding with eval and returns its cube total.
func (l *layers) evaluate(p *face.Problem, e *face.Encoding, o eval.Options) (int, error) {
	o.Workers = l.workers
	var cost *eval.Cost
	err := l.timed("eval.evaluate_s", func() (err error) {
		cost, err = eval.EvaluateContext(context.Background(), p, e, o)
		return
	})
	if err != nil {
		return 0, err
	}
	return cost.Total, nil
}
