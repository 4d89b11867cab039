// Command tables regenerates the paper's evaluation tables on the
// synthetic benchmark suite.
//
//	tables -table 1    reproduce Table I  (constraint-implementation cubes:
//	                   NOVA vs ENC vs PICOLA at minimum code length)
//	tables -table 2    reproduce Table II (state assignment: two-level size
//	                   and normalized runtime for NOVA-ih, NOVA-ioh, NEW)
//
// Rows print in the paper's order; totals and win/loss summaries follow.
// Absolute values differ from the paper's (the suite is synthetic; see
// DESIGN.md §4) — the comparisons are the reproduction target.
//
// -json FILE additionally writes a machine-readable snapshot of the run
// (per-benchmark cube counts / product terms and encode wall time, tables
// 1 and 2) so BENCH_*.json trajectory files can be populated.
//
//	tables -diff OLD.json NEW.json
//
// compares two snapshots: per-row, per-encoder cube/product deltas (the
// regression gate — they must be all zero) plus the aggregate wall-clock
// speedup of NEW over OLD. A nonzero delta exits 1.
//
// -j N bounds the parallel fan-out (rows, encoders per row, and the
// encoders' internal portfolio/scoring). The default is GOMAXPROCS;
// -j 1 reproduces the sequential execution exactly, and the output is
// byte-identical at every -j (timing columns aside, which are only
// meaningful at -j 1). Observability: -trace, -metrics, -ledger, -http,
// -cpuprofile, -memprofile and -v as in cmd/picola; with -http the
// /progress endpoint reports the live rows-done/rows-total position of
// the running sweep.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"picola/internal/baseline/enc"
	"picola/internal/baseline/nova"
	"picola/internal/benchgen"
	"picola/internal/core"
	"picola/internal/ctxutil"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/kiss"
	"picola/internal/obs"
	"picola/internal/obs/obshttp"
	"picola/internal/par"
	"picola/internal/power"
	"picola/internal/report"
	"picola/internal/stassign"
	"picola/internal/symbolic"
	"picola/internal/verify"
)

func main() {
	table := flag.Int("table", 1, "table to regenerate: 1, 2 (paper), 3, 4 (extensions)")
	only := flag.String("fsm", "", "restrict to one benchmark by name")
	seed := flag.Int64("seed", 1, "seed for the randomized baselines")
	encBudget := flag.Int("encbudget", 40000, "ENC espresso-evaluation budget (table 1)")
	jFlag := par.RegisterFlag(flag.CommandLine)
	formatName := flag.String("format", "text", "output format: text, md or csv")
	jsonOut := flag.String("json", "", "write a machine-readable benchmark snapshot to `FILE` (tables 1 and 2)")
	diffMode := flag.Bool("diff", false, "compare two -json snapshots given as `OLD NEW` arguments and report cube/product deltas")
	check := flag.Bool("check", false, "run the semantic verification oracle on every encoding (tables 1 and 2); exit 1 with a shrunk repro on failure")
	timeout := flag.Duration("timeout", 0, "bound the run's wall clock (0 = none)")
	verbose := flag.Bool("v", false, "print a per-stage wall-clock summary to stderr")
	var oc obs.Config
	oc.Command = "tables"
	oc.RegisterFlags(flag.CommandLine)
	flag.Parse()
	var ferr error
	outFormat, ferr = report.ParseFormat(*formatName)
	if ferr != nil {
		fmt.Fprintln(os.Stderr, "tables:", ferr)
		os.Exit(2)
	}
	jWorkers = par.Workers(*jFlag)
	memo = eval.NewCache()
	checkEnabled = *check
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}
	session, serr := oc.Start()
	if serr != nil {
		fmt.Fprintln(os.Stderr, "tables:", serr)
		os.Exit(1)
	}
	tracer = session.Tracer
	httpSrv, herr := obshttp.StartContext(runCtx, oc.HTTPAddr, obshttp.Options{})
	if herr != nil {
		fmt.Fprintln(os.Stderr, "tables:", herr)
		os.Exit(1)
	}
	if httpSrv != nil {
		fmt.Fprintf(os.Stderr, "tables: introspection server on http://%s\n", httpSrv.Addr())
		defer func() { _ = httpSrv.Close() }()
	}
	var err error
	var snap *benchSnapshot
	exitCode := 0
	switch {
	case *diffMode:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "tables: -diff needs exactly two snapshot files: tables -diff OLD.json NEW.json")
			exitCode = 2
		} else {
			exitCode = runDiff(os.Stdout, os.Stderr, flag.Arg(0), flag.Arg(1))
		}
	case *table == 1:
		snap, err = table1(*only, *seed, *encBudget)
	case *table == 2:
		snap, err = table2(*only, *seed)
	case *table == 3:
		err = table3(*only)
	case *table == 4:
		err = table4(*only)
	default:
		err = fmt.Errorf("unknown table %d", *table)
	}
	if err == nil && *jsonOut != "" {
		if snap == nil {
			err = fmt.Errorf("-json supports tables 1 and 2 only")
		} else {
			err = writeSnapshot(*jsonOut, snap)
		}
	}
	if *verbose {
		obs.StageSummary(os.Stderr, obs.Default)
	}
	if cerr := session.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// tracer is the -trace sink (nil when untraced); threaded into the PICOLA
// encoder runs.
var tracer obs.Tracer

// benchSnapshot is the -json output: a machine-readable record of one
// table run, the unit the BENCH_*.json trajectory files accumulate.
type benchSnapshot struct {
	Schema string     `json:"schema"` // "picola-bench/v1"
	Table  int        `json:"table"`
	Rows   []benchRow `json:"rows"`
}

// benchRow is one benchmark's results across the table's encoders.
type benchRow struct {
	FSM         string               `json:"fsm"`
	Constraints int                  `json:"constraints,omitempty"`
	States      int                  `json:"states,omitempty"`
	Encoders    map[string]benchStat `json:"encoders"`
}

// benchStat is one encoder's measurement on one benchmark. Cubes is the
// Table I constraint-implementation metric; Products the Table II encoded
// two-level size; WallNS the encode wall time.
type benchStat struct {
	Cubes     int   `json:"cubes,omitempty"`
	Products  int   `json:"products,omitempty"`
	WallNS    int64 `json:"wall_ns"`
	Completed *bool `json:"completed,omitempty"`
}

func writeSnapshot(path string, snap *benchSnapshot) error {
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Stage timers: every symbolic extraction a table runs, and Table I's
// NOVA and ENC encodes, so -metrics and the -ledger timers show them.
var (
	tExtract = obs.Default.Timer("tables.stage.extract")
	tNova    = obs.Default.Timer("tables.stage.nova")
	tEnc     = obs.Default.Timer("tables.stage.enc")
)

// stage records d, the wall of one machine's run of a stage, on the
// stage's timer and, when tracing, as a span of that stage (the ledger's
// stage row).
func stage(t *obs.Timer, name, machine string, d time.Duration) {
	t.Observe(d)
	obs.Emit(tracer, obs.Event{Kind: obs.KindSpan, Stage: name, Name: machine, DurMS: obs.MS(d)})
}

// extract runs symbolic.ExtractConstraints on m as the extract stage.
func extract(m *kiss.FSM) (*face.Problem, error) {
	t0 := time.Now()
	prob, _, err := symbolic.ExtractConstraints(m)
	stage(tExtract, "extract", m.Name, time.Since(t0))
	return prob, err
}

type table1Row struct {
	name                string
	constraints         int
	novaCubes, picCubes int
	encCubes            int
	encCompleted        bool
	tNova, tEnc, tPic   time.Duration
}

func table1Compute(spec benchgen.Spec, seed int64, encBudget int) (*table1Row, error) {
	m := benchgen.Generate(spec)
	prob, err := extract(m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	row := &table1Row{name: spec.Name, constraints: len(prob.Constraints)}
	evalOpts := eval.Options{Cache: memo, Workers: jWorkers}
	// The three encoders are independent given the extracted problem and
	// each writes disjoint fields of row, so they fan out as one unit per
	// encoder. Under -j > 1 the wall-time columns overlap and are only
	// meaningful relative to each other within one run.
	_, err = par.MapContext(runCtx, 3, jWorkers, func(k int) (struct{}, error) {
		var z struct{}
		switch k {
		case 0:
			t0 := time.Now()
			novaEnc, err := nova.Encode(prob, nova.Options{Variant: nova.IHybrid, Seed: seed})
			if err != nil {
				return z, fmt.Errorf("%s nova: %w", spec.Name, err)
			}
			row.tNova = time.Since(t0)
			stage(tNova, "nova", spec.Name, row.tNova)
			if err := checkEncoded(spec.Name, "nova", prob, novaEnc, func(q *face.Problem) (*face.Encoding, error) {
				return nova.Encode(q, nova.Options{Variant: nova.IHybrid, Seed: seed})
			}); err != nil {
				return z, err
			}
			novaCost, err := eval.EvaluateContext(runCtx, prob, novaEnc, evalOpts)
			if err != nil {
				return z, err
			}
			row.novaCubes = novaCost.Total
		case 1:
			t0 := time.Now()
			encRes, err := enc.Encode(prob, enc.Options{
				Seed: seed, Budget: encBudget, Workers: jWorkers, Cache: memo})
			if err != nil {
				return z, fmt.Errorf("%s enc: %w", spec.Name, err)
			}
			row.tEnc = time.Since(t0)
			stage(tEnc, "enc", spec.Name, row.tEnc)
			if err := checkEncoded(spec.Name, "enc", prob, encRes.Encoding, func(q *face.Problem) (*face.Encoding, error) {
				r, err := enc.Encode(q, enc.Options{Seed: seed, Budget: encBudget, Workers: jWorkers, Cache: memo})
				if err != nil {
					return nil, err
				}
				return r.Encoding, nil
			}); err != nil {
				return z, err
			}
			row.encCubes = encRes.Cost
			row.encCompleted = encRes.Completed
		case 2:
			t0 := time.Now()
			picRes, err := core.EncodeContext(runCtx, prob, core.Options{
				Trace: tracer, Workers: jWorkers, Cache: memo})
			if err != nil {
				return z, fmt.Errorf("%s picola: %w", spec.Name, err)
			}
			row.tPic = time.Since(t0)
			if err := checkEncoded(spec.Name, "picola", prob, picRes.Encoding, func(q *face.Problem) (*face.Encoding, error) {
				r, err := core.Encode(q, core.Options{Workers: jWorkers, Cache: memo})
				if err != nil {
					return nil, err
				}
				return r.Encoding, nil
			}); err != nil {
				return z, err
			}
			picCost, err := eval.EvaluateContext(runCtx, prob, picRes.Encoding, evalOpts)
			if err != nil {
				return z, err
			}
			row.picCubes = picCost.Total
		}
		return z, nil
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

func table1(only string, seed int64, encBudget int) (*benchSnapshot, error) {
	tab := &report.Table{
		Title:  "Table I — cubes to implement the group constraints at minimum code length",
		Header: []string{"FSM", "const", "NOVA", "ENC", "PICOLA", "t_nova", "t_enc", "t_picola"},
	}
	var specs []benchgen.Spec
	for _, spec := range benchgen.Table1Specs() {
		if only == "" || spec.Name == only {
			specs = append(specs, spec)
		}
	}
	rows, err := forEach(specs, func(spec benchgen.Spec) (*table1Row, error) {
		return table1Compute(spec, seed, encBudget)
	})
	if err != nil {
		return nil, err
	}
	snap := &benchSnapshot{Schema: "picola-bench/v1", Table: 1}
	var totNova, totEnc, totPic int
	var winsPic, winsNova, encFails int
	encComparable := true
	for _, row := range rows {
		completed := row.encCompleted
		snap.Rows = append(snap.Rows, benchRow{
			FSM:         row.name,
			Constraints: row.constraints,
			Encoders: map[string]benchStat{
				"nova":   {Cubes: row.novaCubes, WallNS: int64(row.tNova)},
				"enc":    {Cubes: row.encCubes, WallNS: int64(row.tEnc), Completed: &completed},
				"picola": {Cubes: row.picCubes, WallNS: int64(row.tPic)},
			},
		})
		encCol := fmt.Sprintf("%d", row.encCubes)
		if !row.encCompleted {
			encCol = "fails"
			encComparable = false
			encFails++
		} else {
			totEnc += row.encCubes
		}
		totNova += row.novaCubes
		totPic += row.picCubes
		switch {
		case row.picCubes < row.novaCubes:
			winsPic++
		case row.novaCubes < row.picCubes:
			winsNova++
		}
		tab.Add(row.name, fmt.Sprint(row.constraints), fmt.Sprint(row.novaCubes), encCol,
			fmt.Sprint(row.picCubes), round(row.tNova).String(), round(row.tEnc).String(),
			round(row.tPic).String())
	}
	tab.Footer = append(tab.Footer, fmt.Sprintf("Totals: NOVA=%d PICOLA=%d (NOVA/PICOLA = %.2f)",
		totNova, totPic, ratio(totNova, totPic)))
	if encComparable {
		tab.Footer = append(tab.Footer, fmt.Sprintf("ENC=%d (completed all instances)", totEnc))
	} else {
		tab.Footer = append(tab.Footer, fmt.Sprintf(
			"ENC failed (budget exhausted) on %d instance(s); completed total=%d", encFails, totEnc))
	}
	tab.Footer = append(tab.Footer, fmt.Sprintf(
		"PICOLA better on %d, NOVA better on %d, ties on the rest", winsPic, winsNova))
	return snap, tab.Render(os.Stdout, outFormat)
}

// table2Row is one benchmark's three state-assignment runs.
type table2Row struct {
	name   string
	states int
	ih     *stassign.Report
	ioh    *stassign.Report
	neu    *stassign.Report
}

func table2Compute(spec benchgen.Spec, seed int64) (*table2Row, error) {
	m := benchgen.Generate(spec)
	// The three assignments only share the machine, which they read; fan
	// them out one unit per encoder.
	encoders := []stassign.Encoder{stassign.NovaIH, stassign.NovaIOH, stassign.Picola}
	reps, err := par.MapContext(runCtx, len(encoders), jWorkers, func(k int) (*stassign.Report, error) {
		o := stassign.Options{Encoder: encoders[k], Seed: seed, Workers: jWorkers, Cache: memo}
		if encoders[k] == stassign.Picola {
			o.Trace = tracer
		}
		rep, err := stassign.AssignContext(runCtx, m, o)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", spec.Name, encoders[k], err)
		}
		if checkEnabled {
			prob, err := extract(m)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			// The shrink re-encoder approximates NovaIOH with the
			// input-hybrid objective: output pairs need the machine, which
			// a shrunk constraint instance no longer has.
			reEncode := func(q *face.Problem) (*face.Encoding, error) {
				if encoders[k] == stassign.Picola {
					r, err := core.Encode(q, core.Options{ExactPolishBudget: -1, Workers: jWorkers, Cache: memo})
					if err != nil {
						return nil, err
					}
					return r.Encoding, nil
				}
				return nova.Encode(q, nova.Options{Variant: nova.IHybrid, Seed: seed})
			}
			if err := checkEncoded(spec.Name, fmt.Sprint(encoders[k]), prob, rep.Encoding, reEncode); err != nil {
				return nil, err
			}
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	return &table2Row{name: spec.Name, states: m.NumStates(),
		ih: reps[0], ioh: reps[1], neu: reps[2]}, nil
}

func table2(only string, seed int64) (*benchSnapshot, error) {
	tab := &report.Table{
		Title:  "Table II — state assignment: two-level size and time, normalized to NOVA-ih",
		Header: []string{"FSM", "ih", "t", "ioh", "t", "NEW", "t"},
	}
	var specs []benchgen.Spec
	for _, spec := range benchgen.Table2Specs() {
		if only == "" || spec.Name == only {
			specs = append(specs, spec)
		}
	}
	rows, err := forEach(specs, func(spec benchgen.Spec) (*table2Row, error) {
		return table2Compute(spec, seed)
	})
	if err != nil {
		return nil, err
	}
	snap := &benchSnapshot{Schema: "picola-bench/v1", Table: 2}
	var totIH, totIOH, totNew int
	for _, row := range rows {
		ih, ioh, neu := row.ih, row.ioh, row.neu
		base := ih.TotalTime
		tab.Add(row.name,
			fmt.Sprint(ih.Products), "1.00",
			fmt.Sprint(ioh.Products), fmt.Sprintf("%.2f", timeRatio(ioh.TotalTime, base)),
			fmt.Sprint(neu.Products), fmt.Sprintf("%.2f", timeRatio(neu.TotalTime, base)))
		snap.Rows = append(snap.Rows, benchRow{
			FSM:    row.name,
			States: row.states,
			Encoders: map[string]benchStat{
				"nova-ih":  {Products: ih.Products, WallNS: int64(ih.TotalTime)},
				"nova-ioh": {Products: ioh.Products, WallNS: int64(ioh.TotalTime)},
				"picola":   {Products: neu.Products, WallNS: int64(neu.TotalTime)},
			},
		})
		totIH += ih.Products
		totIOH += ioh.Products
		totNew += neu.Products
	}
	tab.Footer = append(tab.Footer,
		fmt.Sprintf("Total products: NOVA-ih=%d NOVA-ioh=%d NEW=%d", totIH, totIOH, totNew),
		fmt.Sprintf("Size ratios vs NEW: ih=%.3f ioh=%.3f", ratio(totIH, totNew), ratio(totIOH, totNew)))
	return snap, tab.Render(os.Stdout, outFormat)
}

func timeRatio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

// table3 is the extension experiment motivating the partial problem: for
// each machine, sweep the code length from the minimum to the width at
// which every face constraint is satisfiable, reporting the constraint
// cost, the encoded machine's product terms, and the PLA area. Full
// satisfaction trades fewer product terms against wider PLAs — usually a
// net loss, which is why minimum-length (partial) encoding is standard.
func table3(only string) error {
	fsms := []string{"bbara", "dk14", "ex3", "opus", "dk16", "keyb"}
	if only != "" {
		fsms = []string{only}
	}
	fmt.Println("Table III (extension) — code length vs. cost trade-off (PICOLA at each length)")
	fmt.Printf("%-10s %4s %7s %10s %10s %9s %14s\n",
		"FSM", "nv", "sat", "cons.cubes", "products", "area", "note")
	for _, name := range fsms {
		spec, ok := benchgen.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		m := benchgen.Generate(spec)
		prob, err := extract(m)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		full, err := core.EncodeAllContext(runCtx, prob, core.Options{Workers: jWorkers, Cache: memo})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		maxNV := full.Encoding.NV
		for nv := prob.MinLength(); nv <= maxNV; nv++ {
			var r *core.Result
			if nv == maxNV {
				r = full
			} else {
				r, err = core.EncodeContext(runCtx, prob, core.Options{NV: nv, Workers: jWorkers, Cache: memo})
				if err != nil {
					return fmt.Errorf("%s nv=%d: %w", name, nv, err)
				}
			}
			satisfied := 0
			for _, c := range prob.Constraints {
				if r.Encoding.Satisfied(c) {
					satisfied++
				}
			}
			// The constraint-cube column uses the exact evaluator, which
			// is only cheap at narrow code spaces; wider rows print "-".
			cubesCol := "-"
			if nv <= 11 {
				cost, err := eval.EvaluateContext(runCtx, prob, r.Encoding, eval.Options{Cache: memo, Workers: jWorkers})
				if err != nil {
					return err
				}
				cubesCol = fmt.Sprintf("%d", cost.Total)
			}
			min, _, err := stassign.MinimizeEncodedContext(runCtx, m, r.Encoding)
			if err != nil {
				return fmt.Errorf("%s nv=%d: %w", name, nv, err)
			}
			area := min.Len() * (2*(m.NumInputs+nv) + nv + m.NumOutputs)
			note := ""
			if nv == prob.MinLength() {
				note = "minimum"
			}
			if satisfied == len(prob.Constraints) {
				note = "all satisfied"
			}
			fmt.Printf("%-10s %4d %3d/%-3d %10s %10d %9d %14s\n",
				name, nv, satisfied, len(prob.Constraints),
				cubesCol, min.Len(), area, note)
			if satisfied == len(prob.Constraints) {
				break
			}
		}
		fmt.Println()
	}
	return nil
}

// jWorkers is set from the shared -j flag; memo is the process-wide
// minimization memo-cache every encoder and evaluator run shares
// (memoized counts are pure functions of their key, so sharing never
// changes a result); outFormat from -format; runCtx carries the
// -timeout deadline into every row and encoder run.
var (
	jWorkers  = 1
	memo      *eval.Cache
	outFormat = report.Text
	runCtx    = context.Background()
	// checkEnabled runs the semantic verification oracle on every
	// encoding produced by tables 1 and 2 (-check).
	checkEnabled = false
)

// checkEncoded verifies one encoding against the semantic oracle when
// -check is set. On failure the instance is shrunk (re-encoding with
// reEncode) to a minimal consfile repro embedded in the error.
func checkEncoded(fsm, encName string, prob *face.Problem, e *face.Encoding,
	reEncode func(*face.Problem) (*face.Encoding, error)) error {
	if !checkEnabled {
		return nil
	}
	failed := func(q *face.Problem, qe *face.Encoding) *verify.Report {
		rep := &verify.Report{}
		rep.Merge(verify.CheckEncoding(q, qe, verify.Options{RequireMinLength: true}))
		rep.Merge(verify.CheckMinimization(q, qe, memo))
		return rep
	}
	rep := failed(prob, e)
	if rep.Ok() {
		return nil
	}
	shrunk := verify.Shrink(prob, func(q *face.Problem) bool {
		qe, err := reEncode(q)
		if err != nil {
			return false
		}
		return !failed(q, qe).Ok()
	}, 0)
	return fmt.Errorf("%s %s: -check failed: %w\nshrunk repro:\n%s",
		fsm, encName, rep.Err(), verify.Repro(shrunk))
}

// forEach maps fn over the specs, up to -j concurrently, and returns the
// results in input order with the lowest-index error winning — the
// deterministic row fan-out of the harness.
// Progress gauges: a table run publishes rows-total before fanning out
// and counts rows-done up as workers finish, so the introspection
// server's /progress endpoint shows a live sweep position.
var (
	pDone  = obs.Default.Gauge(obs.ProgressDone)
	pTotal = obs.Default.Gauge(obs.ProgressTotal)
)

func forEach[T any](specs []benchgen.Spec, fn func(benchgen.Spec) (T, error)) ([]T, error) {
	pTotal.Set(int64(len(specs)))
	pDone.Set(0)
	return par.MapContext(runCtx, len(specs), jWorkers, func(i int) (T, error) {
		// Per-row deadline check: a cancelled sweep stops handing out rows
		// and the harness reports the context error instead of a table.
		var zero T
		if err := ctxutil.Check(runCtx, "tables.row"); err != nil {
			return zero, err
		}
		r, err := fn(specs[i])
		pDone.Add(1)
		return r, err
	})
}

// readSnapshot loads and sanity-checks a -json benchmark snapshot.
func readSnapshot(path string) (*benchSnapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap benchSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if snap.Schema != "picola-bench/v1" {
		return nil, fmt.Errorf("%s: unsupported schema %q", path, snap.Schema)
	}
	return &snap, nil
}

// runDiff drives a -diff comparison and maps the outcome to the exit
// code contract: 0 when the snapshots agree on every quality metric, 1
// on any delta, 2 when a snapshot is unreadable, malformed, or the two
// are not comparable.
func runDiff(w, errw io.Writer, oldPath, newPath string) int {
	mismatches, err := diffSnapshots(w, oldPath, newPath)
	if err != nil {
		fmt.Fprintln(errw, "tables:", err)
		return 2
	}
	if mismatches > 0 {
		fmt.Fprintf(errw, "tables: %d mismatch(es) between %s and %s\n", mismatches, oldPath, newPath)
		return 1
	}
	return 0
}

// diffSnapshots compares two -json snapshots of the same table. Quality
// metrics (cubes, products) are the regression gate: any per-row,
// per-encoder delta is reported and counted. Wall times are expected to
// move — the summary line reports the aggregate speedup of new over old
// instead. Rows pair by FSM name in the old snapshot's order; encoders
// print in sorted-name order. The error return is reserved for unusable
// input (unreadable file, malformed JSON, schema or table mismatch).
func diffSnapshots(w io.Writer, oldPath, newPath string) (int, error) {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		return 0, err
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		return 0, err
	}
	if oldSnap.Table != newSnap.Table {
		return 0, fmt.Errorf("snapshots are of different tables: %d vs %d", oldSnap.Table, newSnap.Table)
	}
	newRows := make(map[string]benchRow, len(newSnap.Rows))
	for _, r := range newSnap.Rows {
		newRows[r.FSM] = r
	}
	var oldWall, newWall int64
	stats, mismatches := 0, 0
	for _, or := range oldSnap.Rows {
		nr, ok := newRows[or.FSM]
		if !ok {
			fmt.Fprintf(w, "%-12s missing from %s\n", or.FSM, newPath)
			mismatches++
			continue
		}
		delete(newRows, or.FSM)
		names := make([]string, 0, len(or.Encoders))
		for name := range or.Encoders {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ns, ok := nr.Encoders[name]
			if !ok {
				fmt.Fprintf(w, "%-12s %-10s missing from %s\n", or.FSM, name, newPath)
				mismatches++
				continue
			}
			os1 := or.Encoders[name]
			stats++
			oldWall += os1.WallNS
			newWall += ns.WallNS
			if dc, dp := ns.Cubes-os1.Cubes, ns.Products-os1.Products; dc != 0 || dp != 0 {
				fmt.Fprintf(w, "%-12s %-10s cubes %d -> %d (%+d)  products %d -> %d (%+d)\n",
					or.FSM, name, os1.Cubes, ns.Cubes, dc, os1.Products, ns.Products, dp)
				mismatches++
			}
		}
		for name := range nr.Encoders {
			if _, ok := or.Encoders[name]; !ok {
				fmt.Fprintf(w, "%-12s %-10s only in %s\n", or.FSM, name, newPath)
				mismatches++
			}
		}
	}
	extra := make([]string, 0, len(newRows))
	for fsm := range newRows {
		extra = append(extra, fsm)
	}
	sort.Strings(extra)
	for _, fsm := range extra {
		fmt.Fprintf(w, "%-12s only in %s\n", fsm, newPath)
		mismatches++
	}
	fmt.Fprintf(w, "table %d: %d rows, %d measurements compared, %d mismatches\n",
		oldSnap.Table, len(oldSnap.Rows), stats, mismatches)
	if newWall > 0 {
		fmt.Fprintf(w, "wall: old=%v new=%v speedup=%.2fx\n",
			time.Duration(oldWall).Round(time.Millisecond),
			time.Duration(newWall).Round(time.Millisecond),
			float64(oldWall)/float64(newWall))
	}
	return mismatches, nil
}

// table4 is the power extension experiment: the switching activity of the
// state register (expected flip-flop toggles per cycle under random
// inputs, Markov steady state) and the product-term cost, for PICOLA's
// area-driven codes versus the low-power annealer's codes. The classical
// result reproduced here is the tension between the two objectives.
func table4(only string) error {
	fsms := []string{"bbara", "dk14", "ex3", "opus", "keyb", "dk16", "planet"}
	if only != "" {
		fsms = []string{only}
	}
	tab := &report.Table{
		Title:  "Table IV (extension) — area-driven vs low-power state codes",
		Header: []string{"FSM", "act(picola)", "products", "act(power)", "products", "act.save"},
	}
	for _, name := range fsms {
		spec, ok := benchgen.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		m := benchgen.Generate(spec)
		mod, err := power.Build(m)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep, err := stassign.AssignContext(runCtx, m, stassign.Options{Encoder: stassign.Picola,
			Workers: jWorkers, Cache: memo})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		low, err := power.Encode(mod, power.Options{Seed: 1})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		minLow, _, err := stassign.MinimizeEncodedContext(runCtx, m, low)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		actPic := mod.Activity(rep.Encoding)
		actLow := mod.Activity(low)
		save := 0.0
		if actPic > 0 {
			save = 100 * (actPic - actLow) / actPic
		}
		tab.Add(name, fmt.Sprintf("%.3f", actPic), fmt.Sprint(rep.Products),
			fmt.Sprintf("%.3f", actLow), fmt.Sprint(minLow.Len()),
			fmt.Sprintf("%.1f%%", save))
	}
	return tab.Render(os.Stdout, outFormat)
}
