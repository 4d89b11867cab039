package eval

import (
	"context"
	"math/rand"
	"testing"

	"picola/internal/espresso"
	"picola/internal/face"
)

// TestHeuristicTruthTableParity: at nv ≤ espresso.TTMaxInputs the
// heuristic scorings — cold and through the cache — take the truth-table
// espresso, and must return what the cover path returns on the
// ConstraintFunction of the same constraint, errors included. Non-
// injective encodings (shared codes, ON∩OFF overlaps) are drawn too.
func TestHeuristicTruthTableParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cache := NewCache()
	for trial := 0; trial < 400; trial++ {
		nv := 1 + trial%espresso.TTMaxInputs
		nm := 1 << uint(nv)
		n := 2 + rng.Intn(nm-1)
		e := face.NewEncoding(n, nv)
		perm := rng.Perm(nm)
		for s := 0; s < n; s++ {
			e.Codes[s] = uint64(perm[s])
			if trial%5 == 0 && s > 0 && rng.Intn(4) == 0 {
				e.Codes[s] = e.Codes[rng.Intn(s)]
			}
		}
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if rng.Intn(2) == 0 {
				c.Add(s)
			}
		}
		var want int
		min, wantErr := espresso.MinimizeContext(context.Background(), ConstraintFunction(e, c))
		if wantErr == nil {
			want = min.Len()
		}
		for _, score := range []func(*face.Encoding, face.Constraint) (int, error){
			ConstraintCubesHeuristic, cache.ConstraintCubesHeuristic,
		} {
			got, err := score(e, c)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("trial %d: error %v, cover path %v", trial, err, wantErr)
			}
			if got != want {
				t.Fatalf("trial %d (nv %d, codes %v, %s): %d cubes, cover path %d",
					trial, nv, e.Codes, c, got, want)
			}
		}
	}
}

// TestAllocsHeuristicScoring: a warmed nv = 5 heuristic scoring through
// the cache's miss path — memoized don't-care cover, pooled scorer,
// truth-table espresso — allocates nothing.
func TestAllocsHeuristicScoring(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	e := testEncoding(24, 5)
	cons := []face.Constraint{
		face.FromMembers(24, 0, 3, 7, 11, 19),
		face.FromMembers(24, 1, 2, 12, 20, 22, 23),
		face.FromMembers(24, 5, 6, 9, 10, 16, 17, 18),
	}
	cache := NewCache()
	kb := new(keyBuf)
	score := func() {
		for _, c := range cons {
			if !kb.cacheKey(e, c, true) {
				t.Fatal("request not canonicalizable")
			}
			if _, err := cache.minimizeWarm(context.Background(), e, c, true, kb); err != nil {
				t.Fatal(err)
			}
		}
	}
	score()
	if allocs := testing.AllocsPerRun(100, score); allocs != 0 {
		t.Fatalf("warmed nv = 5 heuristic scoring allocates %.1f objects/run, want 0", allocs)
	}
}
