package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"picola/internal/face"
)

// scaleLikeProblem mirrors the size-sweep instances: n symbols, n/8
// constraints (at least 2), each of 2 to 9 distinct members drawn
// uniformly; weighted problems give every fourth constraint a
// multiplicity of 2 to 4.
func scaleLikeProblem(seed int64, n int, weighted bool) *face.Problem {
	r := rand.New(rand.NewSource(seed))
	p := &face.Problem{Name: fmt.Sprintf("scale-%d-n%d", seed, n), Names: make([]string, n)}
	for nc := max(2, n/8); len(p.Constraints) < nc; {
		c := face.NewConstraint(n)
		for _, m := range r.Perm(n)[:2+r.Intn(min(8, n-2))] {
			c.Add(m)
		}
		p.AddConstraint(c)
	}
	if weighted {
		p.Weights = make([]int, len(p.Constraints))
		for i := range p.Weights {
			p.Weights[i] = 1
			if i%4 == 0 {
				p.Weights[i] = 2 + r.Intn(3)
			}
		}
	}
	return p
}

// colRecord is one generated column as the parity gate compares it.
type colRecord struct {
	col   string
	moves int
	cost  uint64 // math.Float64bits of lastCost
}

// newDriveEncoder builds the encoder encodeOnce starts from.
func newDriveEncoder(p *face.Problem, o Options, nv int, startZero bool) *encoder {
	n := p.N()
	e := &encoder{p: p, opts: o.withDefaults(), n: n, nv: nv, enc: face.NewEncoding(n, nv), startZero: startZero}
	for i, c := range p.Constraints {
		e.rows = append(e.rows, newTracked(c, Original, 0, -1, float64(p.Weight(i))))
	}
	e.nOri = len(e.rows)
	return e
}

// driveColumns runs the first cols columns of encodeOnce's generation
// loop (no polish) with the production solve or the full-scan oracle
// solveRef, recording every column.
func driveColumns(t testing.TB, e *encoder, cols int, ref bool) []colRecord {
	t.Helper()
	var recs []colRecord
	for j := 0; j < cols; j++ {
		if !e.opts.DisableClassify {
			e.updateConstraints(j)
		}
		solve := e.solve
		if ref {
			solve = e.solveRef
		}
		col, err := solve(j)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, colRecord{col.String(), e.lastMoves, math.Float64bits(e.lastCost)})
		e.apply(col, j)
	}
	return recs
}

// screenCase is one parity-gate instance.
type screenCase struct {
	name      string
	p         *face.Problem
	o         Options
	nv        int // 0 = minimum length
	startZero bool
}

// checkScreenParity runs one case through both solves and demands
// identical columns, identical move counts, bit-identical final column
// costs and identical final codes.
func checkScreenParity(t *testing.T, c screenCase) {
	t.Helper()
	nv := c.nv
	if nv == 0 {
		nv = c.p.MinLength()
	}
	fast := newDriveEncoder(c.p, c.o, nv, c.startZero)
	slow := newDriveEncoder(c.p, c.o, nv, c.startZero)
	fr := driveColumns(t, fast, nv, false)
	sr := driveColumns(t, slow, nv, true)
	for j := range sr {
		if fr[j] != sr[j] {
			t.Fatalf("%s: column %d diverged\nscreen: moves %d cost %v col %s\nfull:   moves %d cost %v col %s",
				c.name, j, fr[j].moves, math.Float64frombits(fr[j].cost), fr[j].col,
				sr[j].moves, math.Float64frombits(sr[j].cost), sr[j].col)
		}
	}
	if !codesEqual(fast.enc.Codes, slow.enc.Codes) {
		t.Fatalf("%s: final codes diverged", c.name)
	}
}

// TestSolveScreenParity is the column-scan parity gate: the screened
// solve must reproduce the full-scan oracle solveRef column for column —
// identical columns and move counts, bit-identical lastCost, identical
// final codes — across random problems, the paper problem, power-of-two
// sizes (every move forced), non-power-of-two sizes (the improvement
// phase runs), guides, start-at-zero columns, weighted rows and classify
// off.
func TestSolveScreenParity(t *testing.T) {
	cases := []screenCase{
		{name: "paper", p: paperProblem()},
		{name: "paper/zero", p: paperProblem(), startZero: true},
		{name: "paper/noclassify", p: paperProblem(), o: Options{DisableClassify: true}},
		{name: "paper/noguides/nv+1", p: paperProblem(), o: Options{DisableGuides: true}, nv: paperProblem().MinLength() + 1},
	}
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 24; trial++ {
		p := randomCarryProblem(r)
		c := screenCase{name: fmt.Sprintf("random-%d", trial), p: p}
		switch trial % 4 {
		case 1:
			c.startZero = true
		case 2:
			c.o.GuideWeight = 0.3
			c.nv = p.MinLength() + 1
		case 3:
			c.o.DisableClassify = true
		}
		cases = append(cases, c)
	}
	for _, n := range []int{64, 256, 1024} {
		if n == 1024 && raceEnabled {
			continue // the full-scan oracle at n = 1024 is too slow under the race detector
		}
		cases = append(cases, screenCase{name: fmt.Sprintf("pow2-n%d", n), p: scaleLikeProblem(int64(n), n, false)})
	}
	cases = append(cases,
		screenCase{name: "n100", p: scaleLikeProblem(100, 100, false)},
		screenCase{name: "n100/zero/weighted", p: scaleLikeProblem(101, 100, true), startZero: true},
		screenCase{name: "n300/weighted", p: scaleLikeProblem(300, 300, true)},
		screenCase{name: "n300/noclassify", p: scaleLikeProblem(301, 300, false), o: Options{DisableClassify: true}},
		screenCase{name: "n200/guide0.7/nv+1", p: scaleLikeProblem(200, 200, true), o: Options{GuideWeight: 0.7}, nv: 9},
		// Guide weights whose terms overflow: the window must admit all.
		screenCase{name: "n64/guide1e307", p: scaleLikeProblem(65, 64, true), o: Options{GuideWeight: 1e307}},
	)
	for _, c := range cases {
		checkScreenParity(t, c)
	}
}

// tieRow is one row of a hand-built near-tie fixture: its members, its
// weight and its unsatisfied outsiders.
type tieRow struct {
	members, unsat []int
	weight         float64
}

// tieEncoder builds a 4-symbol encoder about to generate column 1 of 2.
// Symbols 0 and 1 share the code prefix 0 and symbols 2 and 3 the prefix
// 1, so the class capacity is 1 and each class must flip exactly one
// symbol to 0: the first forced move decides which of symbols 0 and 1
// ends at 0, and the final column records the exact pick.
func tieEncoder(rows []tieRow) *encoder {
	const n = 4
	p := &face.Problem{Names: make([]string, n)}
	e := &encoder{p: p, opts: Options{}.withDefaults(), n: n, nv: 2, enc: face.NewEncoding(n, 2)}
	e.enc.SetBit(2, 0, 1)
	e.enc.SetBit(3, 0, 1)
	for _, r := range rows {
		c := face.FromMembers(n, r.members...)
		p.Constraints = append(p.Constraints, c)
		t := newTracked(c, Original, 0, -1, r.weight)
		for s := 0; s < n; s++ {
			if t.outsiders.Has(s) && !slices.Contains(r.unsat, s) {
				t.mark[s] = 1 // satisfied by column 0
				t.unsat.Remove(s)
			}
		}
		e.rows = append(e.rows, t)
	}
	e.nOri = len(e.rows)
	return e
}

// ulp is the per-dichotomy weight 2^-53: added to 1 it rounds back to 1
// (ties to even), added to another ulp first it survives.
const ulp = 0x1p-53

// tieCases are near-tie fixtures for the exact pick: the first forced
// move must flip symbol want, whose float cost exceeds the other
// candidate's by one ulp. With realTie the two real-valued gains
// are equal, so only the float summation order separates them; plain
// fixtures have no member rows on either candidate, so the signature skip
// compares them.
var tieCases = []struct {
	name    string
	rows    []tieRow
	want    int
	realTie bool
}{
	{"member-rows/later", []tieRow{
		{[]int{1, 2}, []int{0}, 1},
		{[]int{2, 3}, []int{0, 1}, 2 * ulp},
		{[]int{2, 3}, []int{0, 1}, 2 * ulp},
		{[]int{0, 3}, []int{1}, 1},
	}, 1, true},
	{"member-rows/earlier", []tieRow{
		{[]int{0, 3}, []int{1}, 1},
		{[]int{2, 3}, []int{0, 1}, 2 * ulp},
		{[]int{2, 3}, []int{0, 1}, 2 * ulp},
		{[]int{1, 2}, []int{0}, 1},
	}, 0, true},
	{"plain/later", []tieRow{
		{[]int{2, 3}, []int{0}, 1},
		{[]int{2, 3}, []int{0, 1}, 2 * ulp},
		{[]int{2, 3}, []int{0, 1}, 2 * ulp},
		{[]int{2, 3}, []int{1}, 1},
	}, 1, true},
	{"plain/earlier", []tieRow{
		{[]int{2, 3}, []int{1}, 1},
		{[]int{2, 3}, []int{0, 1}, 2 * ulp},
		{[]int{2, 3}, []int{0, 1}, 2 * ulp},
		{[]int{2, 3}, []int{0}, 1},
	}, 0, true},
	// Symbols 0 and 1 share their unsatisfied-outsider rows; only 1's
	// member row, worth one ulp of the cost, separates them.
	{"member-row/same-outsider-rows", []tieRow{
		{[]int{2, 3}, []int{0, 1}, 1},
		{[]int{1}, []int{2}, ulp},
	}, 1, false},
}

// TestSolveScreenUlpTie pins the exact pick on near-ties inside the
// window: the strict > rule on float gains decides, not the index order
// a real-valued argmax would fall back on, whether the later or the
// earlier symbol carries the larger float, and the signature skip never
// drops a candidate whose cost differs.
func TestSolveScreenUlpTie(t *testing.T) {
	for _, c := range tieCases {
		e := tieEncoder(c.rows)
		e.scan.grow(e)
		e.collectUnsat()
		cs := e.resetColScorer(face.NewConstraint(e.n).Complement())
		cost := func(s int) float64 {
			cs.flip(s, false)
			defer cs.flip(s, true)
			return cs.cost()
		}
		exact := func(s int) *big.Rat {
			sum := new(big.Rat)
			for ri := range e.rows {
				cs.flip(s, false)
				up := new(big.Rat).SetFloat64(cs.term(ri, cs.in[ri]))
				cs.flip(s, true)
				sum.Add(sum, up.Sub(up, new(big.Rat).SetFloat64(cs.term(ri, cs.in[ri]))))
			}
			return sum
		}
		lo, hi := cost(1-c.want), cost(c.want)
		if math.Nextafter(lo, 2) != hi || (exact(0).Cmp(exact(1)) == 0) != c.realTie {
			t.Fatalf("%s: fixture lost its near-tie: float costs %v, %v; real gains %v, %v",
				c.name, lo, hi, exact(1-c.want), exact(c.want))
		}
		ref := tieEncoder(c.rows)
		want, err := ref.solveRef(1)
		if err != nil {
			t.Fatal(err)
		}
		if want.Has(c.want) {
			t.Fatalf("%s: the full scan kept symbol %d at 1", c.name, c.want)
		}
		got, err := e.solve(1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || e.lastMoves != ref.lastMoves ||
			math.Float64bits(e.lastCost) != math.Float64bits(ref.lastCost) {
			t.Fatalf("%s: screen %s (%d moves, %v), full scan %s (%d moves, %v)",
				c.name, got, e.lastMoves, e.lastCost, want, ref.lastMoves, ref.lastCost)
		}
	}
}

// TestSolveScreenInertFlip pins the inert test of the signature skip: a
// member row that is mixed before a flip but uniform after it changes the
// cost. The first move flips symbol 0 (row 1 pays 10 for it), leaving
// row 0 mixed; the forced second move then chooses between symbol 2 and
// symbol 3, whose non-mixed outsider rows are the same (none), but only
// symbol 3's flip makes row 0 uniform and earns its one-ulp weight.
func TestSolveScreenInertFlip(t *testing.T) {
	rows := []tieRow{
		{[]int{0, 3}, []int{2}, 0x1p-49}, // one ulp of 10
		{[]int{0}, []int{1}, 10},
	}
	ref := tieEncoder(rows)
	want, err := ref.solveRef(1)
	if err != nil {
		t.Fatal(err)
	}
	if want.Has(0) || want.Has(3) {
		t.Fatalf("fixture lost its shape: the full scan built %s", want)
	}
	e := tieEncoder(rows)
	got, err := e.solve(1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || math.Float64bits(e.lastCost) != math.Float64bits(ref.lastCost) {
		t.Fatalf("screen %s (%v), full scan %s (%v)", got, e.lastCost, want, ref.lastCost)
	}
}

// TestScoredSigMatches pins the signature comparison: two memberless
// symbols with the same unsatisfied-outsider rows match in the same flip
// direction only, and a differing non-mixed row breaks the match.
func TestScoredSigMatches(t *testing.T) {
	e := tieEncoder([]tieRow{
		{[]int{2, 3}, []int{0, 1}, 1},
		{[]int{2, 3}, []int{0}, 1},
	})
	e.scan.grow(e)
	e.collectUnsat()
	col := face.NewConstraint(e.n).Complement()
	e.resetColScorer(col)
	sc := &e.scan
	sc.resetScreen(e)
	sc.sigs = append(sc.sigs[:0], 0)
	if sc.scoredSig(col, 1, true) {
		t.Fatal("row 1 holds only symbol 0, yet the signatures matched")
	}
	sc.nonMixed[0] &^= 1 << 1 // row 1 mixed: its counters no longer count
	if !sc.scoredSig(col, 1, true) {
		t.Fatal("same non-mixed rows and direction, yet no match")
	}
	if sc.scoredSig(col, 1, false) {
		t.Fatal("opposite flip directions matched")
	}
}

// TestSolveScreenFires guards against the screen silently degrading to a
// full scan: on a size-sweep instance both the float-error window and the
// signature skip must cut re-scores, and the full cost re-sums must be a
// small fraction of the screened candidates.
func TestSolveScreenFires(t *testing.T) {
	cut0, skip0, scans0 := mScanWindowCut.Value(), mScanSigSkipped.Value(), mColumnScans.Value()
	p := scaleLikeProblem(256, 256, false)
	driveColumns(t, newDriveEncoder(p, Options{}, p.MinLength(), false), p.MinLength(), false)
	cut := mScanWindowCut.Value() - cut0
	skipped := mScanSigSkipped.Value() - skip0
	scans := mColumnScans.Value() - scans0
	if cut == 0 || skipped == 0 {
		t.Fatalf("window cut %d, signature skipped %d: both must fire", cut, skipped)
	}
	if scans*10 > cut+skipped {
		t.Fatalf("%d full re-sums against %d screened-out candidates", scans, cut+skipped)
	}
	t.Logf("%d re-sums, %d window cuts, %d signature skips", scans, cut, skipped)
}

// TestAllocsSolve is the column-scan allocation gate: on a warmed
// encoder (scratch at its high-water mark, tracing off) one full column
// solve performs zero heap allocations.
func TestAllocsSolve(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	// A mid-run state: some rows satisfied, guides live.
	p := scaleLikeProblem(7, 128, true)
	e := newDriveEncoder(p, Options{}, p.MinLength(), false)
	j := p.MinLength() / 2
	driveColumns(t, e, j, false)
	e.updateConstraints(j)
	solveJ := func() {
		if _, err := e.solve(j); err != nil {
			t.Fatal(err)
		}
	}
	solveJ() // warm
	if allocs := testing.AllocsPerRun(20, solveJ); allocs != 0 {
		t.Fatalf("warmed solve allocated %.1f objects per column, want 0", allocs)
	}
}

// BenchmarkSolve compares one warmed column solve against the full-scan
// oracle on the first column of a size-sweep instance.
func BenchmarkSolve(b *testing.B) {
	for _, n := range []int{256, 1024} {
		p := scaleLikeProblem(int64(n), n, false)
		e := newDriveEncoder(p, Options{}, p.MinLength(), false)
		e.updateConstraints(0)
		b.Run(fmt.Sprintf("n%d/screen", n), func(b *testing.B) {
			e.solve(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.solve(0)
			}
		})
		b.Run(fmt.Sprintf("n%d/full", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.solveRef(0)
			}
		})
	}
}
