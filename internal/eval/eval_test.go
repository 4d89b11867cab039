package eval

import (
	"math/rand"
	"testing"

	"picola/internal/exact"
	"picola/internal/face"
)

func TestSatisfiedConstraintCostsOneCube(t *testing.T) {
	// Codes 000,001,010,011 for members: one cube 0--.
	e := face.NewEncoding(6, 3)
	for s := 0; s < 6; s++ {
		e.Codes[s] = uint64(s)
	}
	c := face.FromMembers(6, 0, 1, 2, 3)
	k, err := ConstraintCubes(e, c)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("cubes = %d", k)
	}
}

func TestViolatedConstraintCostsMore(t *testing.T) {
	// Members 000 and 011 with non-members 001,010 filling the span: two
	// isolated minterms, 2 cubes.
	e := face.NewEncoding(4, 3)
	e.Codes[0], e.Codes[1], e.Codes[2], e.Codes[3] = 0b000, 0b011, 0b001, 0b010
	c := face.FromMembers(4, 0, 1)
	k, err := ConstraintCubes(e, c)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("cubes = %d", k)
	}
}

func TestUnusedCodesAreDontCares(t *testing.T) {
	// Members 000 and 011; 001 and 010 are unused (only two other symbols
	// far away): DC lets espresso cover the pair with one cube 0--.
	e := face.NewEncoding(4, 3)
	e.Codes[0], e.Codes[1], e.Codes[2], e.Codes[3] = 0b000, 0b011, 0b111, 0b110
	c := face.FromMembers(4, 0, 1)
	k, err := ConstraintCubes(e, c)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("cubes = %d (unused codes must act as don't cares)", k)
	}
}

func TestEvaluateTotals(t *testing.T) {
	e := face.NewEncoding(4, 2)
	for s := 0; s < 4; s++ {
		e.Codes[s] = uint64(s)
	}
	p := &face.Problem{Names: make([]string, 4)}
	p.AddConstraint(face.FromMembers(4, 0, 1)) // satisfied: 0- plane... codes 00,01 -> cube 0-
	p.AddConstraint(face.FromMembers(4, 0, 3)) // 00 and 11: violated
	p.AddConstraint(face.FromMembers(4, 0, 1)) // duplicate: bumps weight
	c, err := Evaluate(p, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cubes) != 2 {
		t.Fatalf("constraints = %d", len(c.Cubes))
	}
	if c.Cubes[0] != 1 || c.Cubes[1] != 2 {
		t.Fatalf("cubes = %v", c.Cubes)
	}
	if c.Total != 3 {
		t.Fatalf("total = %d", c.Total)
	}
	if c.WeightedTotal != 1*2+2*1 {
		t.Fatalf("weighted = %d", c.WeightedTotal)
	}
	if c.SatisfiedCount != 1 {
		t.Fatalf("satisfied = %d", c.SatisfiedCount)
	}
}

// TestEvaluateShortcutPinsCubeCounts pins the satisfied-constraint
// shortcut: Evaluate skips the minimizer for satisfied constraints (they
// cost exactly one cube by the ConstraintCubes contract), and the
// reported per-constraint counts must equal a direct ConstraintCubes
// evaluation of every constraint — at any worker count, cached or not.
func TestEvaluateShortcutPinsCubeCounts(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(10)
		nv := 0
		for (1 << nv) < n {
			nv++
		}
		e := face.NewEncoding(n, nv)
		perm := r.Perm(1 << uint(nv))
		for s := 0; s < n; s++ {
			e.Codes[s] = uint64(perm[s])
		}
		p := &face.Problem{Names: make([]string, n)}
		for i := 0; i < 6; i++ {
			c := face.NewConstraint(n)
			for s := 0; s < n; s++ {
				if r.Intn(3) == 0 {
					c.Add(s)
				}
			}
			p.AddConstraint(c)
		}
		if len(p.Constraints) == 0 {
			continue
		}
		before := mSatShortcut.Value()
		got, err := Evaluate(p, e)
		if err != nil {
			t.Fatal(err)
		}
		sawSatisfied := false
		for i, con := range p.Constraints {
			want, err := ConstraintCubes(e, con)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cubes[i] != want {
				t.Fatalf("trial %d constraint %d: Evaluate reports %d cubes, minimizer %d",
					trial, i, got.Cubes[i], want)
			}
			if e.Satisfied(con) {
				sawSatisfied = true
			}
		}
		if sawSatisfied && mSatShortcut.Value() == before {
			t.Fatal("satisfied constraint evaluated without taking the shortcut")
		}
		// The parallel, cached evaluation must report the identical Cost.
		par, err := Evaluate(p, e, Options{Cache: NewCache(), Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Total != got.Total || par.WeightedTotal != got.WeightedTotal ||
			par.SatisfiedCount != got.SatisfiedCount {
			t.Fatalf("trial %d: parallel cached Cost %+v differs from sequential %+v",
				trial, par, got)
		}
		for i := range got.Cubes {
			if par.Cubes[i] != got.Cubes[i] {
				t.Fatalf("trial %d constraint %d: parallel %d, sequential %d",
					trial, i, par.Cubes[i], got.Cubes[i])
			}
		}
	}
}

func TestSatisfiedIffOneCube(t *testing.T) {
	// Property: a constraint is satisfied exactly when its minimized
	// implementation is a single cube. (One direction is the definition;
	// the other holds because a single implicant covering all members and
	// no non-member is precisely a face.)
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		n := 3 + r.Intn(10)
		nv := 0
		for (1 << nv) < n {
			nv++
		}
		e := face.NewEncoding(n, nv)
		perm := r.Perm(1 << uint(nv))
		for s := 0; s < n; s++ {
			e.Codes[s] = uint64(perm[s])
		}
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				c.Add(s)
			}
		}
		if c.Count() < 1 || c.Count() >= n {
			continue
		}
		k, err := ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		if e.Satisfied(c) != (k == 1) {
			t.Fatalf("satisfied=%v but cubes=%d (n=%d nv=%d)", e.Satisfied(c), k, n, nv)
		}
	}
}

// TestNonInjectiveParity pins what the exact path does with encodings
// that give two symbols one code. A code that is both ON (a member's) and
// OFF (a non-member's) is rejected with the minimizer's overlap error,
// naming the lowest such code, identically through every entry point, on
// the truth-table width and on the dense one; a shared code on one side
// of the split is an ordinary minterm.
func TestNonInjectiveParity(t *testing.T) {
	for _, nv := range []int{3, 7} {
		e := face.NewEncoding(6, nv)
		copy(e.Codes, []uint64{5, 5, 3, 3, 0, 6})
		overlap := face.FromMembers(6, 0, 2, 4) // codes 5 and 3 both sides
		want := "exact: ON and OFF overlap at minterm 3"
		_, err1 := ConstraintCubes(e, overlap)
		_, err2 := NewCache().ConstraintCubes(e, overlap)
		_, err3 := Evaluate(&face.Problem{Constraints: []face.Constraint{overlap}}, e)
		for i, err := range []error{err1, err2, err3} {
			if err == nil || err.Error() != want {
				t.Fatalf("nv=%d: entry point %d returned %v, want %q", nv, i, err, want)
			}
		}

		shared := face.FromMembers(6, 0, 1, 4) // code 5 on the ON side only
		min, err := exact.Minimize(ConstraintFunction(e, shared), nv)
		if err != nil {
			t.Fatal(err)
		}
		k1, err1 := ConstraintCubes(e, shared)
		k2, err2 := NewCache().ConstraintCubes(e, shared)
		cost, err3 := Evaluate(&face.Problem{Constraints: []face.Constraint{shared}}, e)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("nv=%d: %v %v %v", nv, err1, err2, err3)
		}
		if k1 != min.Len() || k2 != min.Len() || cost.Total != min.Len() {
			t.Fatalf("nv=%d: counts %d %d %d, Minimize %d", nv, k1, k2, cost.Total, min.Len())
		}
	}
}
