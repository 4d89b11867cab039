package cover

import (
	"math/rand"
	"testing"

	"picola/internal/cube"
)

// randCover builds a random cover of up to maxCubes cubes over d, with
// mostly non-empty fields.
func randCover(rng *rand.Rand, d *cube.Domain, maxCubes int) *Cover {
	f := New(d)
	n := rng.Intn(maxCubes + 1)
	for i := 0; i < n; i++ {
		c := d.NewCube()
		for v := 0; v < d.NumVars(); v++ {
			for val := 0; val < d.Size(v); val++ {
				if rng.Intn(3) != 0 {
					d.Set(c, v, val)
				}
			}
			if d.PartEmpty(c, v) && rng.Intn(8) != 0 {
				d.Set(c, v, rng.Intn(d.Size(v)))
			}
		}
		f.Add(c)
	}
	return f
}

// TestTautologyKernelMatchesGeneric cross-checks the single-word tautology
// kernel against the generic recursion (tautologyRef over the Generic
// view) — results must match and, because the kernel mirrors the generic
// decision structure, so must the tautology_nodes metric increments.
func TestTautologyKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		nv := 1 + rng.Intn(6)
		d := cube.Binary(nv)
		if rng.Intn(3) == 0 {
			d = cube.New(append([]int{1 + rng.Intn(4)}, repeatSizes(2, nv)...)...)
		}
		if !d.SingleWord() {
			t.Fatal("test domain must be single-word")
		}
		g := d.Generic()
		f := randCover(rng, d, 12)
		fg := &Cover{D: g, Cubes: f.Cubes}

		n0 := mTautologyNodes.Value()
		kt := f.Tautology()
		kNodes := mTautologyNodes.Value() - n0

		n0 = mTautologyNodes.Value()
		gt := tautologyRef(fg)
		gNodes := mTautologyNodes.Value() - n0

		if kt != gt {
			t.Fatalf("Tautology disagree on\n%s\nkernel %v generic %v", f, kt, gt)
		}
		if kNodes != gNodes {
			t.Fatalf("node counts diverge on\n%s\nkernel %d generic %d", f, kNodes, gNodes)
		}

		c := randCover(rng, d, 1)
		if c.Len() == 1 {
			n0 = mTautologyNodes.Value()
			kc := f.CoversCube(c.Cubes[0])
			kNodes = mTautologyNodes.Value() - n0

			n0 = mTautologyNodes.Value()
			gc := coversCubeRef(fg, c.Cubes[0])
			gNodes = mTautologyNodes.Value() - n0

			if kc != gc {
				t.Fatalf("CoversCube disagree: kernel %v generic %v", kc, gc)
			}
			if kNodes != gNodes {
				t.Fatalf("CoversCube node counts diverge: kernel %d generic %d", kNodes, gNodes)
			}
		}
	}
}

func repeatSizes(s, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// TestTautologyKernelKnownCases pins a few hand-checked covers.
func TestTautologyKernelKnownCases(t *testing.T) {
	d := cube.Binary(3)
	if !FromStrings(d, "0--", "1--").Tautology() {
		t.Fatal("0--|1-- must be a tautology")
	}
	if FromStrings(d, "0--", "10-").Tautology() {
		t.Fatal("0--|10- is not a tautology")
	}
	f := FromStrings(d, "0--", "-1-")
	if !f.CoversCube(d.MustParse("01-")) {
		t.Fatal("cover must contain 01-")
	}
	if f.CoversCube(d.MustParse("1--")) {
		t.Fatal("cover must not contain 1--")
	}
}
