package cover

import (
	"math/rand"
	"testing"

	"picola/internal/cube"
)

// randWideDomain draws a domain of 2 to 8 words mixing binary variables
// with multi-valued ones of up to 200 values (and the odd one-valued
// variable), so fields start at odd offsets and straddle word boundaries.
func randWideDomain(rng *rand.Rand) *cube.Domain {
	words := 2 + rng.Intn(7)
	for {
		var sizes []int
		bits := 0
		for bits <= 64*(words-1) {
			s := 2
			switch r := rng.Intn(10); {
			case r < 2:
				s = 3 + rng.Intn(198)
			case r < 3:
				s = 1 + rng.Intn(8)
			}
			sizes = append(sizes, s)
			bits += s
		}
		if bits <= 64*words {
			return cube.New(sizes...)
		}
	}
}

// randWideCover builds a cover mixing a tautology skeleton with random
// cubes, so both outcomes occur: the universe split on a few random
// variables into value groups, then cubes restricting one to three random
// variables, some with a field emptied (so the recursion stays shallow on
// domains of hundreds of variables). With probability 1/2 one value is cut
// from one skeleton cube, which usually breaks the tautology.
func randWideCover(rng *rand.Rand, d *cube.Domain) *Cover {
	f := New(d)
	if rng.Intn(3) != 0 {
		parts := []cube.Cube{d.Universe()}
		for split := rng.Intn(4); split > 0; split-- {
			i := rng.Intn(len(parts))
			p := parts[i]
			v := rng.Intn(d.NumVars())
			if d.Size(v) < 2 {
				continue
			}
			a, b := p.Clone(), p.Clone()
			d.ClearAll(a, v)
			d.ClearAll(b, v)
			d.Set(a, v, 0)
			d.Set(b, v, 1)
			for val := 2; val < d.Size(v); val++ {
				if rng.Intn(2) == 0 {
					d.Set(a, v, val)
				} else {
					d.Set(b, v, val)
				}
			}
			parts[i] = a
			parts = append(parts, b)
		}
		if rng.Intn(2) == 0 {
			p := parts[rng.Intn(len(parts))]
			v := rng.Intn(d.NumVars())
			d.ClearVal(p, v, rng.Intn(d.Size(v)))
		}
		for _, p := range parts {
			f.Add(p)
		}
	}
	for n := rng.Intn(7); n > 0; n-- {
		c := d.Universe()
		for r := 1 + rng.Intn(3); r > 0; r-- {
			v := rng.Intn(d.NumVars())
			d.ClearAll(c, v)
			for val := 0; val < d.Size(v); val++ {
				if rng.Intn(3) == 0 {
					d.Set(c, v, val)
				}
			}
		}
		if rng.Intn(6) == 0 {
			d.ClearAll(c, rng.Intn(d.NumVars()))
		}
		f.Add(c)
	}
	rng.Shuffle(len(f.Cubes), func(i, j int) { f.Cubes[i], f.Cubes[j] = f.Cubes[j], f.Cubes[i] })
	return f
}

// TestTautologyWideKernelMatchesRef cross-checks the wide kernel against
// the generic recursion over the domain's Generic view: Tautology and
// CoversCube must agree, and so must the cover.tautology_nodes deltas.
func TestTautologyWideKernelMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var taut, notTaut, covered, notCovered, emptyRoot int
	var maxNodes int64
	for iter := 0; iter < 2000; iter++ {
		d := randWideDomain(rng)
		if d.SingleWord() || d.Words() < 2 || d.Words() > 8 {
			t.Fatalf("test domain has %d words", d.Words())
		}
		f := randWideCover(rng, d)
		fg := &Cover{D: d.Generic(), Cubes: f.Cubes}
		for _, c := range f.Cubes {
			if d.IsEmpty(c) {
				emptyRoot++
				break
			}
		}

		n0 := mTautologyNodes.Value()
		kt := f.Tautology()
		kNodes := mTautologyNodes.Value() - n0
		n0 = mTautologyNodes.Value()
		gt := tautologyRef(fg)
		gNodes := mTautologyNodes.Value() - n0
		if kt != gt {
			t.Fatalf("iter %d: Tautology disagree on\n%s\nkernel %v oracle %v", iter, f, kt, gt)
		}
		if kNodes != gNodes {
			t.Fatalf("iter %d: node counts diverge: kernel %d oracle %d", iter, kNodes, gNodes)
		}
		maxNodes = max(maxNodes, kNodes)
		if kt {
			taut++
		} else {
			notTaut++
		}

		// A cube inside one of the cover's cubes, or a random one.
		var c cube.Cube
		if f.Len() > 0 && rng.Intn(2) == 0 {
			c = f.Cubes[rng.Intn(f.Len())].Clone()
			v := rng.Intn(d.NumVars())
			d.Restrict(c, v, rng.Intn(d.Size(v)))
		} else {
			c = d.Universe()
			for v := 0; v < d.NumVars(); v++ {
				if rng.Intn(3) == 0 {
					d.Restrict(c, v, rng.Intn(d.Size(v)))
				}
			}
		}
		n0 = mTautologyNodes.Value()
		kc := f.CoversCube(c)
		kNodes = mTautologyNodes.Value() - n0
		n0 = mTautologyNodes.Value()
		gc := coversCubeRef(fg, c)
		gNodes = mTautologyNodes.Value() - n0
		if kc != gc {
			t.Fatalf("iter %d: CoversCube(%s) disagree: kernel %v oracle %v", iter, d.String(c), kc, gc)
		}
		if kNodes != gNodes {
			t.Fatalf("iter %d: CoversCube node counts diverge: kernel %d oracle %d", iter, kNodes, gNodes)
		}
		if kc {
			covered++
		} else {
			notCovered++
		}
	}
	t.Logf("tautology %d/%d, covered %d/%d, %d root covers with an empty cube, up to %d nodes",
		taut, taut+notTaut, covered, covered+notCovered, emptyRoot, maxNodes)
	if taut < 100 || notTaut < 100 || covered < 100 || notCovered < 100 || emptyRoot < 100 {
		t.Fatal("the random covers no longer exercise both outcomes and empty root cubes")
	}
}

// symbolicLike builds an n-cube cover over a 6-word domain shaped like
// scf's symbolic cover (27 binary inputs, a 121-valued present state, a
// 177-valued output): each cube fixes a few inputs and holds a sparse
// state and output subset.
func symbolicLike(rng *rand.Rand, n int) *Cover {
	sizes := append(repeatSizes(2, 27), 121, 177)
	d := cube.New(sizes...)
	f := New(d)
	for i := 0; i < n; i++ {
		c := d.Universe()
		for r := 3 + rng.Intn(6); r > 0; r-- {
			d.Restrict(c, rng.Intn(27), rng.Intn(2))
		}
		for _, v := range []int{27, 28} {
			d.ClearAll(c, v)
			d.Set(c, v, rng.Intn(d.Size(v)))
			for val := 0; val < d.Size(v); val++ {
				if rng.Intn(4) == 0 {
					d.Set(c, v, val)
				}
			}
		}
		f.Add(c)
	}
	return f
}

// TestAllocsCoversCubeWide is the wide kernel's allocation gate: on a
// warmed 6-word domain one CoversCube call and one Tautology call perform
// zero heap allocations.
func TestAllocsCoversCubeWide(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	f := symbolicLike(rand.New(rand.NewSource(5)), 120)
	if f.D.Words() != 6 {
		t.Fatalf("domain has %d words, want 6", f.D.Words())
	}
	c := f.Cubes[7].Clone()
	f.D.Restrict(c, 27, f.D.PartValues(c, 27)[0])
	if !f.CoversCube(c) {
		t.Fatal("a cube inside a cover cube must be covered")
	}
	n0 := mTautologyNodes.Value()
	f.Tautology()
	if mTautologyNodes.Value()-n0 < 2 {
		t.Fatal("Tautology decided at the root; the gate must reach the recursion")
	}
	for name, run := range map[string]func(){
		"CoversCube": func() { f.CoversCube(c) },
		"Tautology":  func() { f.Tautology() },
	} {
		run() // warm the pooled arena
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("warmed %s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// BenchmarkCoversCubeWide times the irredundancy-style query "does the
// rest of the cover cover this cube" over a 6-word symbolic-like cover,
// kernel against the generic recursion (tautologyRef) on the same domain.
func BenchmarkCoversCubeWide(b *testing.B) {
	f := symbolicLike(rand.New(rand.NewSource(9)), 150)
	rests := make([]*Cover, f.Len())
	for i := range rests {
		rests[i] = f.Without(i)
	}
	for _, side := range []struct {
		name   string
		covers func(g *Cover, c cube.Cube) bool
	}{
		{"kernel", (*Cover).CoversCube},
		{"oracle", coversCubeRef},
	} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			n0 := mTautologyNodes.Value()
			for i := 0; i < b.N; i++ {
				j := i % len(rests)
				side.covers(rests[j], f.Cubes[j])
			}
			b.ReportMetric(float64(mTautologyNodes.Value()-n0)/float64(b.N), "nodes/op")
		})
	}
}
