package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/obs"
)

// TestDiffExitCodes pins the -diff exit-code contract: 0 when the
// snapshots agree on every quality metric, 1 on any delta (including
// missing rows), 2 when a snapshot is unusable.
func TestDiffExitCodes(t *testing.T) {
	td := func(name string) string { return filepath.Join("testdata", name) }
	cases := []struct {
		name     string
		oldPath  string
		newPath  string
		wantCode int
		wantOut  string // substring of stdout, "" to skip
		wantErr  string // substring of stderr, "" to skip
	}{
		{"identical", "diff_old.json", "diff_old.json", 0, "0 mismatches", ""},
		{"wall-time-only", "diff_old.json", "diff_same.json", 0, "4 measurements compared, 0 mismatches", ""},
		{"cube-delta", "diff_old.json", "diff_delta.json", 1, "cubes 4 -> 6 (+2)", "1 mismatch(es)"},
		{"missing-row", "diff_old.json", "diff_missing_row.json", 1, "beta", "1 mismatch(es)"},
		{"extra-row", "diff_missing_row.json", "diff_old.json", 1, "only in", "1 mismatch(es)"},
		{"malformed-new", "diff_old.json", "diff_malformed.json", 2, "", "diff_malformed.json"},
		{"malformed-old", "diff_malformed.json", "diff_old.json", 2, "", "diff_malformed.json"},
		{"bad-schema", "diff_old.json", "diff_badschema.json", 2, "", "unsupported schema"},
		{"unreadable", "diff_old.json", "diff_nonexistent.json", 2, "", "diff_nonexistent.json"},
		{"table-mismatch", "diff_old.json", "diff_table2.json", 2, "", "different tables"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			code := runDiff(&out, &errw, td(tc.oldPath), td(tc.newPath))
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tc.wantCode, out.String(), errw.String())
			}
			if tc.wantOut != "" && !strings.Contains(out.String(), tc.wantOut) {
				t.Fatalf("stdout missing %q:\n%s", tc.wantOut, out.String())
			}
			if tc.wantErr != "" && !strings.Contains(errw.String(), tc.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantErr, errw.String())
			}
		})
	}
}

// TestForEachHonorsCancelledContext is the -timeout regression test for
// the row harness: with the run context already cancelled, forEach must
// run zero rows and report the wrapped context error instead of a
// zero-filled result slice.
func TestForEachHonorsCancelledContext(t *testing.T) {
	prev := runCtx
	t.Cleanup(func() { runCtx = prev })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runCtx = ctx
	specs := benchgen.Table1Specs()
	ran := 0
	_, err := forEach(specs, func(benchgen.Spec) (int, error) {
		ran++
		return 0, nil
	})
	if err == nil {
		t.Fatal("forEach returned success under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d rows ran under a cancelled context", ran)
	}
}

// TestForEachCancelMidSweep cancels after the first row: the sweep must
// stop early (strictly fewer rows than specs) and report the sentinel.
func TestForEachCancelMidSweep(t *testing.T) {
	prev, prevW := runCtx, jWorkers
	t.Cleanup(func() { runCtx, jWorkers = prev, prevW })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runCtx = ctx
	jWorkers = 1
	specs := benchgen.Table1Specs()
	if len(specs) < 2 {
		t.Skip("needs at least two specs")
	}
	ran := 0
	_, err := forEach(specs, func(benchgen.Spec) (int, error) {
		ran++
		cancel()
		return 0, nil
	})
	if err == nil {
		t.Fatal("forEach returned success after mid-sweep cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d rows after cancelling on the first, want 1", ran)
	}
}

// TestExtractIsAStage: every extraction a table runs advances the
// tables.stage.extract timer and, when tracing, lands in the ledger as an
// "extract" stage of one span per machine.
func TestExtractIsAStage(t *testing.T) {
	spec, ok := benchgen.ByName("bbara")
	if !ok {
		t.Fatal("bbara missing from the suite")
	}
	led := obs.NewRunLedger("tables", obs.Default)
	saved := tracer
	tracer = led
	defer func() { tracer = saved }()
	n0 := tExtract.Count()
	prob, err := extract(benchgen.Generate(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Constraints) == 0 {
		t.Fatal("bbara extracted no constraints")
	}
	if n := tExtract.Count() - n0; n != 1 {
		t.Fatalf("tables.stage.extract advanced by %d, want 1", n)
	}
	rec := led.Finalize()
	if _, ok := rec.Timers["tables.stage.extract"]; !ok {
		t.Fatal("ledger timers miss tables.stage.extract")
	}
	for _, st := range rec.Stages {
		if st.Stage == "extract" {
			if st.Spans != 1 || st.CumNS <= 0 {
				t.Fatalf("extract stage: %d spans, %d ns", st.Spans, st.CumNS)
			}
			return
		}
	}
	t.Fatalf("ledger has no extract stage: %+v", rec.Stages)
}

// TestBaselinesAreStages: a Table I row times its NOVA and ENC encodes as
// the nova and enc stages — one span each in the ledger and one
// observation on each stage timer — next to extract.
func TestBaselinesAreStages(t *testing.T) {
	spec, ok := benchgen.ByName("bbara")
	if !ok {
		t.Fatal("bbara missing from the suite")
	}
	led := obs.NewRunLedger("tables", obs.Default)
	saved := tracer
	tracer = led
	defer func() { tracer = saved }()
	n0, e0 := tNova.Count(), tEnc.Count()
	if _, err := table1Compute(spec, 1, 40000); err != nil {
		t.Fatal(err)
	}
	if dn, de := tNova.Count()-n0, tEnc.Count()-e0; dn != 1 || de != 1 {
		t.Fatalf("stage timers advanced nova %d, enc %d; want 1 each", dn, de)
	}
	rec := led.Finalize()
	spans := map[string]int64{}
	for _, st := range rec.Stages {
		if st.CumNS > 0 {
			spans[st.Stage] = st.Spans
		}
	}
	for _, name := range []string{"extract", "nova", "enc"} {
		if spans[name] != 1 {
			t.Fatalf("ledger stage %s: %d timed spans, want 1 (stages %+v)", name, spans[name], rec.Stages)
		}
		if _, ok := rec.Timers["tables.stage."+name]; !ok {
			t.Fatalf("ledger timers miss tables.stage.%s", name)
		}
	}
}
