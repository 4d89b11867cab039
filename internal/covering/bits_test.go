package covering

import (
	"math/bits"
	"math/rand"
	"testing"
)

// randCols draws ncols column masks over nrows rows, every row in at
// least one column.
func randCols(r *rand.Rand, nrows, ncols int) []uint64 {
	cols := make([]uint64, ncols)
	for row := 0; row < nrows; row++ {
		hit := false
		for c := range cols {
			if r.Intn(4) == 0 {
				cols[c] |= 1 << uint(row)
				hit = true
			}
		}
		if !hit {
			cols[r.Intn(ncols)] |= 1 << uint(row)
		}
	}
	return cols
}

// rowColsOf is the Solver instance of a column-mask instance.
func rowColsOf(cols []uint64) [][]int {
	var rows uint64
	for _, m := range cols {
		rows |= m
	}
	var rowCols [][]int
	for m := rows; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(m)
		var cs []int
		for c, cm := range cols {
			if cm>>uint(r)&1 != 0 {
				cs = append(cs, c)
			}
		}
		rowCols = append(rowCols, cs)
	}
	return rowCols
}

// TestSolver64MatchesSolver: the bitset search returns Solver's count
// and visits Solver's number of nodes, with and without a budget cut.
func TestSolver64MatchesSolver(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	var s Solver
	var s64 Solver64
	cut, trials := 0, 3000
	if raceEnabled {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		nrows := 1 + r.Intn(64)
		if trial%3 == 0 {
			nrows = 64
		}
		cols := randCols(r, nrows, 1+r.Intn(40))
		var o Options
		if trial%2 == 1 {
			o.MaxNodes = 1 + r.Intn(200)
		}
		want := len(s.Solve(rowColsOf(cols), len(cols), o))
		got := s64.Count(cols, o)
		if got != want || s64.Nodes() != s.Nodes() {
			t.Fatalf("trial %d: Solver64 %d cubes / %d nodes, Solver %d / %d", trial, got, s64.Nodes(), want, s.Nodes())
		}
		if o.MaxNodes != 0 && s.Nodes() > o.MaxNodes {
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("no search hit its budget; the cut is untested")
	}
	if got := s64.Count(nil); got != 0 || s64.Nodes() != 1 {
		t.Fatalf("empty instance: %d cubes, %d nodes", got, s64.Nodes())
	}
}

// TestAllocsSolver64: a warmed Solver64 counts without heap allocation.
func TestAllocsSolver64(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; the plain build runs this gate")
	}
	cols := randCols(rand.New(rand.NewSource(1)), 64, 30)
	var s Solver64
	s.Count(cols)
	if a := testing.AllocsPerRun(100, func() { s.Count(cols) }); a != 0 {
		t.Fatalf("warmed Count allocates %.1f times per call", a)
	}
}
