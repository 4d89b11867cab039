package eval

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"picola/internal/espresso"
	"picola/internal/exact"
	"picola/internal/face"
)

// testEncoding builds a deterministic injective encoding of n symbols over
// nv columns (symbol index as its own code).
func testEncoding(n, nv int) *face.Encoding {
	e := face.NewEncoding(n, nv)
	for s := 0; s < n; s++ {
		for col := 0; col < nv; col++ {
			e.SetBit(s, col, s>>uint(col)&1)
		}
	}
	return e
}

// TestConstraintFunctionSharesDomain: the per-nv interned cache means two
// calls build their covers over one *Domain — no per-call rebuild.
func TestConstraintFunctionSharesDomain(t *testing.T) {
	e := testEncoding(6, 3)
	c := face.FromMembers(6, 0, 1, 5)
	f1 := ConstraintFunction(e, c)
	f2 := ConstraintFunction(e, c)
	if f1.D != f2.D {
		t.Fatal("ConstraintFunction rebuilt the domain: two calls returned distinct *Domain")
	}
	if f1.D.NumVars() != 3 || f1.D.Words() != 1 {
		t.Fatalf("interned domain malformed: %d vars", f1.D.NumVars())
	}
}

// TestAllocsExactScoring is the steady-state allocation gate of the
// tentpole: on a warmed arena, one exact single-word constraint scoring —
// cube construction, classification, prime generation, covering — performs
// zero heap allocations.
func TestAllocsExactScoring(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	e := testEncoding(6, 3)
	cons := []face.Constraint{
		face.FromMembers(6, 0, 1, 5),
		face.FromMembers(6, 2, 3),
		face.FromMembers(6, 1, 2, 4, 5),
	}
	score := func() {
		for _, c := range cons {
			if _, err := ConstraintCubes(e, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	score() // warm the pooled scorer
	if allocs := testing.AllocsPerRun(200, score); allocs != 0 {
		t.Fatalf("steady-state exact scoring allocates %.1f objects/run, want 0", allocs)
	}
}

// TestAllocsWiderCodeSpace: the dense counter covers up to 8 inputs; a
// 5-bit space must also be allocation-free once warmed.
func TestAllocsWiderCodeSpace(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	e := testEncoding(20, 5)
	c := face.FromMembers(20, 0, 3, 7, 11, 19)
	score := func() {
		if _, err := ConstraintCubes(e, c); err != nil {
			t.Fatal(err)
		}
	}
	score()
	if allocs := testing.AllocsPerRun(100, score); allocs != 0 {
		t.Fatalf("5-bit exact scoring allocates %.1f objects/run, want 0", allocs)
	}
}

// TestAllocsDenseCodeSpace: code spaces beyond exact.TTMaxInputs take the
// slab build and the dense counter, which must be allocation-free too.
func TestAllocsDenseCodeSpace(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	e := testEncoding(100, 7)
	c := face.FromMembers(100, 0, 3, 7, 11, 19, 42, 77)
	score := func() {
		if _, err := ConstraintCubes(e, c); err != nil {
			t.Fatal(err)
		}
	}
	score()
	if allocs := testing.AllocsPerRun(100, score); allocs != 0 {
		t.Fatalf("7-bit exact scoring allocates %.1f objects/run, want 0", allocs)
	}
}

// TestPooledScoringUnderContention hammers the pooled exact and
// heuristic paths from GOMAXPROCS×2 goroutines and checks every result
// against the unpooled references (ConstraintFunction + exact.Minimize,
// ConstraintFunction + espresso.Minimize). Run under -race, this is the
// pooling layer's contention gate.
func TestPooledScoringUnderContention(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, nv = 12, 4
	e := testEncoding(n, nv)
	var cons []face.Constraint
	var want, wantH []int
	for i := 0; i < 24; i++ {
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if rng.Intn(3) == 0 {
				c.Add(s)
			}
		}
		if c.Count() == 0 {
			c.Add(rng.Intn(n))
		}
		cons = append(cons, c)
		min, err := exact.Minimize(ConstraintFunction(e, c), nv)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, min.Len())
		heur, err := espresso.Minimize(ConstraintFunction(e, c))
		if err != nil {
			t.Fatal(err)
		}
		wantH = append(wantH, heur.Len())
	}

	workers := runtime.GOMAXPROCS(0) * 2
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				for i, c := range cons {
					got, err := ConstraintCubes(e, c)
					if err != nil {
						errs[w] = err
						return
					}
					if got != want[i] {
						t.Errorf("worker %d: constraint %d: pooled %d, reference %d", w, i, got, want[i])
						return
					}
					gotH, err := ConstraintCubesHeuristic(e, c)
					if err != nil {
						errs[w] = err
						return
					}
					if gotH != wantH[i] {
						t.Errorf("worker %d: constraint %d: pooled heuristic %d, reference %d", w, i, gotH, wantH[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
