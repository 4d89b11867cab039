package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"picola/internal/baseline/enc"
	"picola/internal/baseline/nova"
	"picola/internal/benchgen"
	"picola/internal/core"
	"picola/internal/cover"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/kiss"
	"picola/internal/symbolic"
)

// table1Ref pins the Table I constraint counts and cube counts every
// table1 pass must reproduce exactly, row by row and encoder by encoder.
//
//go:embed table1_ref.json
var table1Ref []byte

// encoders are the Table I columns, in the order cmd/tables runs them.
var encoders = []string{"nova", "enc", "picola"}

type refRow struct {
	FSM         string         `json:"fsm"`
	Constraints int            `json:"constraints"`
	Cubes       map[string]int `json:"cubes"`
}

// snapshot is the part of a picola-bench/v1 -json snapshot the checks
// read (cmd/tables and cmd/batch share the schema).
type snapshot struct {
	Schema string `json:"schema"`
	Rows   []struct {
		FSM         string `json:"fsm"`
		Constraints int    `json:"constraints"`
		Encoders    map[string]struct {
			Cubes int `json:"cubes"`
		} `json:"encoders"`
	} `json:"rows"`
}

func readSnapshot(path string) (*snapshot, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var s snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != "picola-bench/v1" {
		return nil, nil, fmt.Errorf("%s: schema %q", path, s.Schema)
	}
	return &s, raw, nil
}

// table1 runs `tables -table 1` over the paper's 33 Table I machines:
// benchgen generation, symbolic extraction, NOVA, ENC and PICOLA, and
// evaluation. Its inputs are the paper's fixed suite, so the seed does
// not change them.
type table1 struct {
	ref []refRow
	got map[string]refRow // last traced run's rows by FSM
}

// setupReps: a table1 set-up is an untimed warm-up pass.
func (t *table1) setupReps() int { return 2 }

// setup loads the pinned reference and runs one warm-up pass of the
// command, checked like a timed one, so the binary's first-run costs
// land in set-up rather than in the first timed pass.
func (t *table1) setup(b *bench, rep int) error {
	if t.ref == nil {
		var ref struct {
			Rows []refRow `json:"rows"`
		}
		if err := json.Unmarshal(table1Ref, &ref); err != nil {
			return fmt.Errorf("table1 reference: %w", err)
		}
		t.ref = ref.Rows
	}
	_, err := t.pass(b)
	return err
}

func (t *table1) pass(b *bench) (passStat, error) {
	out := filepath.Join(b.work, "table1.json")
	p, err := b.runCmd("tables", "-table", "1", "-j", fmt.Sprint(jobs), "-json", out)
	if err != nil {
		return passStat{}, err
	}
	var ps passStat
	ps.add(p)
	snap, _, err := readSnapshot(out)
	if err != nil {
		return passStat{}, err
	}
	got := make(map[string]refRow, len(snap.Rows))
	for _, r := range snap.Rows {
		row := refRow{FSM: r.FSM, Constraints: r.Constraints, Cubes: map[string]int{}}
		for e, st := range r.Encoders {
			row.Cubes[e] = st.Cubes
			ps.cubes += st.Cubes
		}
		got[r.FSM] = row
	}
	for _, r := range t.ref {
		b.attempted++
		if err := matchRow(r, got); err != nil {
			b.fail("table1 %s: %v", r.FSM, err)
		}
	}
	if len(got) != len(t.ref) {
		b.fail("table1: %d rows, want %d", len(got), len(t.ref))
	}
	return ps, nil
}

// matchRow compares the row of got named like r with r: its extracted
// constraint count and its cubes per encoder.
func matchRow(r refRow, got map[string]refRow) error {
	g, ok := got[r.FSM]
	if !ok {
		return fmt.Errorf("missing row")
	}
	if g.Constraints != r.Constraints {
		return fmt.Errorf("%d constraints, want %d", g.Constraints, r.Constraints)
	}
	for _, e := range encoders {
		if g.Cubes[e] != r.Cubes[e] {
			return fmt.Errorf("%s cubes %d, want %d", e, g.Cubes[e], r.Cubes[e])
		}
	}
	return nil
}

// traced mirrors cmd/tables' table1Compute sequentially: per machine,
// generate, extract (build, minimize, constraints), then NOVA and its
// evaluation, ENC, and PICOLA and its evaluation, sharing one cache as
// the command does. Every cube count is checked against the reference.
func (t *table1) traced(b *bench, tr *tracer) (*layers, error) {
	l := newLayers(tr)
	t.got = map[string]refRow{}
	memo := eval.NewCache()
	evalOpts := eval.Options{Cache: memo, Workers: 1}
	for _, spec := range benchgen.Table1Specs() {
		t0 := time.Now()
		var m *kiss.FSM
		var sc *symbolic.Cover
		var min *cover.Cover
		var prob *face.Problem
		_ = l.timed("benchgen.generate_s", func() error { m = benchgen.Generate(spec); return nil })
		err := l.timed("symbolic.build_s", func() (err error) { sc, err = symbolic.Build(m); return })
		if err == nil {
			err = l.timed("symbolic.minimize_s", func() (err error) { min, err = sc.Minimize(); return })
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		_ = l.timed("symbolic.constraints_s", func() error { prob = sc.ConstraintsFrom(min); return nil })
		l.v["symbolic.constraints"] += float64(len(prob.Constraints))
		l.v["symbolic.cover_cubes"] += float64(min.Len())

		cubes := map[string]int{}
		var novaEnc *face.Encoding
		err = l.timed("nova.encode_s", func() (err error) {
			novaEnc, err = nova.Encode(prob, nova.Options{Variant: nova.IHybrid, Seed: 1})
			return
		})
		if err == nil {
			cubes["nova"], err = l.evaluate(prob, novaEnc, evalOpts)
		}
		var encRes *enc.Result
		if err == nil {
			err = l.timed("enc.encode_s", func() (err error) {
				encRes, err = enc.Encode(prob, enc.Options{Seed: 1, Budget: encBudget, Workers: 1, Cache: memo})
				return
			})
		}
		var picRes *core.Result
		if err == nil {
			picRes, err = l.encode(prob, core.Options{Cache: memo})
		}
		if err == nil {
			cubes["picola"], err = l.evaluate(prob, picRes.Encoding, evalOpts)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		cubes["enc"] = encRes.Cost
		l.v["enc.evaluations"] += float64(encRes.Evaluations)
		if !encRes.Completed {
			l.v["enc.incomplete"]++
		}
		l.inst = append(l.inst, time.Since(t0))
		t.got[spec.Name] = refRow{FSM: spec.Name, Constraints: len(prob.Constraints), Cubes: cubes}
		l.verifyLater(spec.Name+" nova", prob, novaEnc)
		l.verifyLater(spec.Name+" enc", prob, encRes.Encoding)
		l.verifyLater(spec.Name+" picola", prob, picRes.Encoding)
	}
	l.finish()
	return l, nil
}

// encBudget is cmd/tables' default ENC evaluation budget.
const encBudget = 40000

// crossCheck holds the traced run's cube counts to the reference, which
// the command's set-up pass was already held to.
func (t *table1) crossCheck(b *bench) error {
	for _, r := range t.ref {
		b.attempted++
		if err := matchRow(r, t.got); err != nil {
			b.fail("table1 traced %s: %v", r.FSM, err)
		}
	}
	return nil
}

func (t *table1) minPasses() int { return 3 }
