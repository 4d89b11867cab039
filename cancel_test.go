package picola

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/ctxutil"
	"picola/internal/face"
)

// cancelSuiteProblems are the randomized Table-I-style instances the
// cancellation suite runs on: small enough that a full pipeline run is
// cheap, varied enough to reach every deadline-check site (portfolio
// restarts, column scans, polish passes, evaluator fan-out).
func cancelSuiteProblems() []*face.Problem {
	var ps []*face.Problem
	for seed := int64(1); seed <= 3; seed++ {
		ps = append(ps, benchgen.RandomProblem(seed, 8))
	}
	return ps
}

// encodingBytes fingerprints a result for byte-identity comparison.
func encodingBytes(t *testing.T, res *Result) string {
	t.Helper()
	if res == nil || res.Encoding == nil {
		t.Fatal("nil result from an uncancelled Encode")
	}
	return fmt.Sprintf("nv=%d codes=%v sat=%v cost=%+v",
		res.Encoding.NV, res.Encoding.Codes, res.Satisfied, res.Cost)
}

// installHook swaps the ctxutil deadline-check hook for the test and
// restores the previous one on cleanup. The suite relies on root tests
// running sequentially (none call t.Parallel).
func installHook(t *testing.T, h func(site string)) {
	t.Helper()
	prev := ctxutil.Hook
	ctxutil.Hook = h
	t.Cleanup(func() { ctxutil.Hook = prev })
}

// TestCancelNoCtxVsBackground is the determinism half of the contract:
// threading context.Background() through the pipeline must not perturb
// the encoding — the no-ctx and explicit-ctx runs are byte-identical.
func TestCancelNoCtxVsBackground(t *testing.T) {
	for i, p := range cancelSuiteProblems() {
		opts := Options{Workers: 1, Evaluate: true}
		noCtx, err := Encode(nil, p, opts)
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		bg, err := Encode(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		if a, b := encodingBytes(t, noCtx), encodingBytes(t, bg); a != b {
			t.Errorf("problem %d: nil-ctx and Background runs differ:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// countSites runs one full Encode with a counting hook and returns the
// total number of deadline-check sites the run visits. The count depends
// on the worker count (the parallel pool checks once per Map call, the
// inline path once per task) but is deterministic at any fixed width.
func countSites(t *testing.T, p *face.Problem, workers int) int64 {
	t.Helper()
	var n atomic.Int64
	installHook(t, func(string) { n.Add(1) })
	if _, err := Encode(context.Background(), p, Options{Workers: workers, Evaluate: true}); err != nil {
		t.Fatal(err)
	}
	return n.Load()
}

// cancelAtSite runs Encode cancelling the context when the k-th
// deadline-check site fires, and asserts the cancellation contract:
// a wrapped context.Canceled, no Result.
func cancelAtSite(t *testing.T, p *face.Problem, k int64, workers int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	installHook(t, func(string) {
		// The hook runs before the site polls ctx.Err(), so the k-th
		// check itself observes the cancellation.
		if n.Add(1)-1 == k {
			cancel()
		}
	})
	res, err := Encode(ctx, p, Options{Workers: workers, Evaluate: true})
	if err == nil {
		t.Fatalf("cancel at site %d: Encode returned success", k)
	}
	if res != nil {
		t.Fatalf("cancel at site %d: partial result %+v alongside error %v", k, res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel at site %d: error %v does not wrap context.Canceled", k, err)
	}
	if !strings.Contains(err.Error(), "picola: run cancelled at") {
		t.Fatalf("cancel at site %d: error %q lacks the cancellation message", k, err)
	}
}

// TestCancelAtEverySite cancels sequential runs at randomized points in
// the site sequence (first, last, and a sampled interior spread) and
// checks every cancel path surfaces the sentinel error with no encoding.
// A final uncancelled run must still match the pristine baseline — a
// cancelled run leaves no state behind that changes later results.
func TestCancelAtEverySite(t *testing.T) {
	for i, p := range cancelSuiteProblems() {
		baseRes, err := Encode(context.Background(), p, Options{Workers: 1, Evaluate: true})
		if err != nil {
			t.Fatal(err)
		}
		base := encodingBytes(t, baseRes)
		total := countSites(t, p, 1)
		if total < 10 {
			t.Fatalf("problem %d: only %d check sites; the pipeline lost its deadline checks", i, total)
		}
		// Sample ~16 sites: the ends plus an evenly spaced interior
		// (deterministic, so failures reproduce).
		sites := map[int64]bool{0: true, 1: true, total - 2: true, total - 1: true}
		for j := int64(0); j < 12; j++ {
			sites[(total*j)/12] = true
		}
		for k := range sites {
			if k < 0 || k >= total {
				continue
			}
			cancelAtSite(t, p, k, 1)
		}
		ctxutil.Hook = nil
		after, err := Encode(context.Background(), p, Options{Workers: 1, Evaluate: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := encodingBytes(t, after); got != base {
			t.Errorf("problem %d: encoding drifted after cancelled runs:\n%s\nvs\n%s", i, got, base)
		}
	}
}

// TestCancelParallelWorkers is the same contract under a parallel
// fan-out: cancellation mid-run at nproc workers must produce the
// sentinel error and no result (the par pool must not return its
// zero-filled slice as success).
func TestCancelParallelWorkers(t *testing.T) {
	p := cancelSuiteProblems()[0]
	workers := runtime.GOMAXPROCS(0)
	total := countSites(t, p, workers)
	// Interior cut points only: with a parallel pool the tail sites race
	// the run's completion (another worker may finish the remaining work
	// before the cancelled site's task unwinds), so the exercised
	// invariant is "cancel observed mid-run → sentinel error, no result",
	// checked at cuts that are guaranteed to be observed.
	for _, k := range []int64{0, total / 4, total / 3, total / 2} {
		cancelAtSite(t, p, k, workers)
	}
}

// TestCancelPastDeadline runs with an already-expired deadline: the very
// first check site must stop the run with a wrapped DeadlineExceeded.
func TestCancelPastDeadline(t *testing.T) {
	p := cancelSuiteProblems()[0]
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	for _, algo := range Algorithms() {
		if algo == "optimal" && p.N() > 8 {
			continue
		}
		res, err := Encode(ctx, p, Options{Algorithm: algo, Workers: 2, Evaluate: true})
		if err == nil {
			t.Fatalf("%s: expired deadline returned success", algo)
		}
		if res != nil {
			t.Fatalf("%s: partial result alongside %v", algo, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: error %v does not wrap context.DeadlineExceeded", algo, err)
		}
	}
}

// TestCancelledEvaluate pins the evaluator's own boundary: a cancelled
// context stops EvaluateContext via the public Encode path even when the
// encoder itself has already finished.
func TestCancelledEvaluate(t *testing.T) {
	p := cancelSuiteProblems()[1]
	// Count the sites of the encode phase alone, then cancel after them:
	// the cut lands inside the evaluation.
	var encodeOnly int64
	installHook(t, func(string) { atomic.AddInt64(&encodeOnly, 1) })
	if _, err := Encode(context.Background(), p, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ctxutil.Hook = nil
	cancelAtSite(t, p, encodeOnly+1, 1)
}

// envelopeProblem is a size-sweep instance at the upper end of the
// column scan's range: n = 256 symbols (a power of two, so every column
// move is forced) and n/8 constraints of 2 to 9 members.
func envelopeProblem() *face.Problem {
	const n = 256
	r := rand.New(rand.NewSource(256))
	p := &face.Problem{Name: "envelope-n256", Names: make([]string, n)}
	for s := range p.Names {
		p.Names[s] = fmt.Sprintf("s%d", s)
	}
	for len(p.Constraints) < n/8 {
		c := face.NewConstraint(n)
		for _, m := range r.Perm(n)[:2+r.Intn(8)] {
			c.Add(m)
		}
		p.AddConstraint(c)
	}
	return p
}

// TestCancelColumnScanAtScale cuts a sequential n = 256 run at sampled
// column-scan move sites — the first, the last and an evenly spaced
// interior — and checks each cut returns the wrapped context.Canceled
// and no result, and that an uncancelled run afterwards still matches
// the pristine baseline.
func TestCancelColumnScanAtScale(t *testing.T) {
	p := envelopeProblem()
	opts := Options{Workers: 1}
	baseRes, err := Encode(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := encodingBytes(t, baseRes)
	// Number the column-scan sites of one run.
	var total atomic.Int64
	installHook(t, func(site string) {
		if site == "core.column_scan" {
			total.Add(1)
		}
	})
	if _, err := Encode(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
	scans := total.Load()
	if scans < 256 {
		t.Fatalf("only %d column-scan sites at n = 256; the scan lost its deadline check", scans)
	}
	for j := int64(0); j <= 8; j++ {
		k := min((scans*j)/8, scans-1)
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		installHook(t, func(site string) {
			if site == "core.column_scan" && seen.Add(1)-1 == k {
				cancel()
			}
		})
		res, err := Encode(ctx, p, opts)
		cancel()
		if err == nil || res != nil {
			t.Fatalf("cut at column-scan site %d of %d: result %v, error %v", k, scans, res != nil, err)
		}
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "core.column_scan") {
			t.Fatalf("cut at column-scan site %d: error %v is not a wrapped context.Canceled at the scan", k, err)
		}
	}
	ctxutil.Hook = nil
	after, err := Encode(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodingBytes(t, after); got != base {
		t.Errorf("encoding drifted after cancelled runs:\n%s\nvs\n%s", got, base)
	}
}
