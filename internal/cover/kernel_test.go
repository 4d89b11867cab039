package cover

import (
	"math/rand"
	"testing"

	"picola/internal/cube"
)

// randWideDomain draws a domain of 1 to 8 words mixing binary variables
// with multi-valued ones of up to 200 values (and the odd one-valued
// variable), so fields start at odd offsets and straddle word boundaries.
func randWideDomain(rng *rand.Rand) *cube.Domain {
	words := 1 + rng.Intn(8)
	lo := 64 * (words - 1)
	if words == 1 {
		lo = rng.Intn(64)
	}
	for {
		var sizes []int
		bits := 0
		for bits <= lo {
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

// kernelMatchesRef runs Tautology on f, and CoversCube(c) when c is not
// nil, through the kernel and through the generic recursion, and fails
// unless results and cover.tautology_nodes deltas agree. It returns the
// kernel's answers and its tautology node count.
func kernelMatchesRef(t *testing.T, f *Cover, c cube.Cube) (taut, covered bool, nodes int64) {
	t.Helper()
	n0 := mTautologyNodes.Value()
	taut = f.Tautology()
	nodes = mTautologyNodes.Value() - n0
	n0 = mTautologyNodes.Value()
	ref := tautologyRef(f)
	refNodes := mTautologyNodes.Value() - n0
	if taut != ref {
		t.Fatalf("Tautology disagree on\n%s\nkernel %v oracle %v", f, taut, ref)
	}
	if nodes != refNodes {
		t.Fatalf("node counts diverge on\n%s\nkernel %d oracle %d", f, nodes, refNodes)
	}
	if c == nil {
		return taut, false, nodes
	}
	n0 = mTautologyNodes.Value()
	covered = f.CoversCube(c)
	kNodes := mTautologyNodes.Value() - n0
	n0 = mTautologyNodes.Value()
	ref = coversCubeRef(f, c)
	refNodes = mTautologyNodes.Value() - n0
	if covered != ref {
		t.Fatalf("CoversCube(%s) disagree on\n%s\nkernel %v oracle %v", f.D.String(c), f, covered, ref)
	}
	if kNodes != refNodes {
		t.Fatalf("CoversCube(%s) node counts diverge: kernel %d oracle %d", f.D.String(c), kNodes, refNodes)
	}
	return taut, covered, nodes
}

// TestTautologyWideKernelMatchesRef cross-checks the kernel against the
// generic recursion (tautologyRef): Tautology and CoversCube must agree,
// and so must the cover.tautology_nodes deltas, on skeleton covers over
// random domains of 1 to 8 words.
func TestTautologyWideKernelMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var taut, notTaut, covered, notCovered, emptyRoot, oneWord int
	var maxNodes int64
	for iter := 0; iter < 2000; iter++ {
		d := randWideDomain(rng)
		if d.Words() < 1 || d.Words() > 8 {
			t.Fatalf("test domain has %d words", d.Words())
		}
		if d.Words() == 1 {
			oneWord++
		}
		f := randWideCover(rng, d)
		for _, c := range f.Cubes {
			if d.IsEmpty(c) {
				emptyRoot++
				break
			}
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
		kt, kc, nodes := kernelMatchesRef(t, f, c)
		maxNodes = max(maxNodes, nodes)
		if kt {
			taut++
		} else {
			notTaut++
		}
		if kc {
			covered++
		} else {
			notCovered++
		}
	}
	t.Logf("tautology %d/%d, covered %d/%d, %d root covers with an empty cube, %d one-word domains, up to %d nodes",
		taut, taut+notTaut, covered, covered+notCovered, emptyRoot, oneWord, maxNodes)
	if taut < 100 || notTaut < 100 || covered < 100 || notCovered < 100 || emptyRoot < 100 || oneWord < 100 {
		t.Fatal("the random covers no longer exercise both outcomes, empty root cubes and one-word domains")
	}
}

// TestTautologyKernelMatchesGeneric runs the same cross-check on dense
// random covers over small single-word domains (binary, or led by a 1- to
// 4-valued variable).
func TestTautologyKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		nv := 1 + rng.Intn(6)
		d := cube.Binary(nv)
		if rng.Intn(3) == 0 {
			d = cube.New(append([]int{1 + rng.Intn(4)}, repeatSizes(2, nv)...)...)
		}
		f := randCover(rng, d, 12)
		var c cube.Cube
		if g := randCover(rng, d, 1); g.Len() == 1 {
			c = g.Cubes[0]
		}
		kernelMatchesRef(t, f, c)
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

// tautologySkeleton is the 16-cube cover of Binary(nv) fixing the first
// four variables in every way: a genuine tautology, so Tautology recurses
// instead of deciding at the root.
func tautologySkeleton(nv int) *Cover {
	d := cube.Binary(nv)
	f := New(d)
	for x := 0; x < 16; x++ {
		c := d.Universe()
		for v := 0; v < 4; v++ {
			d.Restrict(c, v, x>>uint(v)&1)
		}
		f.Add(c)
	}
	return f
}

// TestAllocsCoversCubeWide is the kernel's allocation gate: on a warmed
// 6-word symbolic-like domain and on a warmed one-word code space, one
// CoversCube call and one Tautology call perform zero heap allocations.
func TestAllocsCoversCubeWide(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	wide := symbolicLike(rand.New(rand.NewSource(5)), 120)
	wc := wide.Cubes[7].Clone()
	wide.D.Restrict(wc, 27, wide.D.PartValues(wc, 27)[0])
	one := tautologySkeleton(6)
	oc := one.D.MustParse("01-1-0")
	for _, tc := range []struct {
		name  string
		f     *Cover
		c     cube.Cube
		words int
	}{{"6-word", wide, wc, 6}, {"1-word", one, oc, 1}} {
		f, c := tc.f, tc.c
		if f.D.Words() != tc.words {
			t.Fatalf("%s: domain has %d words", tc.name, f.D.Words())
		}
		if !f.CoversCube(c) {
			t.Fatalf("%s: a cube inside the cover must be covered", tc.name)
		}
		n0 := mTautologyNodes.Value()
		f.Tautology()
		if mTautologyNodes.Value()-n0 < 2 {
			t.Fatalf("%s: Tautology decided at the root; the gate must reach the recursion", tc.name)
		}
		for name, run := range map[string]func(){
			"CoversCube": func() { f.CoversCube(c) },
			"Tautology":  func() { f.Tautology() },
		} {
			run() // warm the pooled arena
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Errorf("%s: warmed %s allocates %.1f objects per call, want 0", tc.name, name, allocs)
			}
		}
	}
}

// BenchmarkCoversCubeWide times the irredundancy-style query "does the
// rest of the cover cover this cube" over a 6-word symbolic-like cover,
// kernel against the generic recursion (tautologyRef).
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
