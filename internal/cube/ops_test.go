package cube

import (
	"math/rand"
	"testing"
)

// Every cube operation runs over the domain's Layout masks. These tests
// check each against the per-value reference (reference_test.go) on
// random cubes over domains of one to five words and over hand-picked
// edge domains.

// randDomain builds a random domain whose bit width lands in
// (64*(words-1), 64*words]: either all-binary or mixed variable sizes
// (one-valued fields included, now and then one of up to 160 values), so
// fields straddling word boundaries occur regularly.
func randDomain(rng *rand.Rand, words int) *Domain {
	lo, hi := 64*(words-1)+1, 64*words
	if rng.Intn(2) == 0 {
		nv := (lo + 1 + rng.Intn(hi-lo)) / 2
		if 2*nv <= 64*(words-1) {
			nv = 64*(words-1)/2 + 1
		}
		return Binary(nv)
	}
	target := lo + rng.Intn(hi-lo+1)
	var sizes []int
	bits := 0
	for bits < target {
		s := 1 + rng.Intn(9)
		if rng.Intn(12) == 0 {
			s = 10 + rng.Intn(151)
		}
		if bits+s > hi {
			s = hi - bits
		}
		sizes = append(sizes, s)
		bits += s
	}
	return New(sizes...)
}

// randCube fills a fresh cube with random per-variable subsets, biased
// toward non-empty fields but occasionally producing empty ones.
func randCube(rng *rand.Rand, d *Domain) Cube {
	c := d.NewCube()
	for v := 0; v < d.NumVars(); v++ {
		for val := 0; val < d.Size(v); val++ {
			if rng.Intn(3) != 0 {
				d.Set(c, v, val)
			}
		}
		if d.PartEmpty(c, v) && rng.Intn(4) != 0 {
			d.Set(c, v, rng.Intn(d.Size(v)))
		}
	}
	return c
}

// nearCube returns a copy of a with one or two fields redrawn, so that
// pairs at distance 0, 1 and 2 — the cases Consensus tells apart — occur
// often.
func nearCube(rng *rand.Rand, d *Domain, a Cube) Cube {
	b := a.Clone()
	for r := 1 + rng.Intn(2); r > 0 && d.NumVars() > 0; r-- {
		v := rng.Intn(d.NumVars())
		d.ClearAll(b, v)
		d.Set(b, v, rng.Intn(d.Size(v)))
	}
	return b
}

// checkOpsMatchOracle runs the full operation battery on d against the
// per-value reference with fresh random cubes.
func checkOpsMatchOracle(t *testing.T, rng *rand.Rand, d *Domain) {
	t.Helper()
	a := randCube(rng, d)
	b := randCube(rng, d)
	if rng.Intn(2) == 0 {
		b = nearCube(rng, d, a)
	}

	if u, want := d.Universe(), refUniverse(d); !Equal(u, want) {
		t.Fatalf("Universe: %s, reference %s", d.String(u), d.String(want))
	}
	if got, want := d.IsEmpty(a), refIsEmpty(d, a); got != want {
		t.Fatalf("IsEmpty(%s): %v, reference %v", d.String(a), got, want)
	}
	if got, want := d.Intersects(a, b), refDistance(d, a, b) == 0; got != want {
		t.Fatalf("Intersects(%s,%s): %v, reference %v", d.String(a), d.String(b), got, want)
	}
	if got, want := d.Distance(a, b), refDistance(d, a, b); got != want {
		t.Fatalf("Distance(%s,%s): %d, reference %d", d.String(a), d.String(b), got, want)
	}
	if got, want := d.FullParts(a), refFullParts(d, a); got != want {
		t.Fatalf("FullParts(%s): %d, reference %d", d.String(a), got, want)
	}
	if got, want := d.Minterms(a), refMinterms(d, a); got != want {
		t.Fatalf("Minterms(%s): %d, reference %d", d.String(a), got, want)
	}
	for v := 0; v < d.NumVars(); v++ {
		if d.PartEmpty(a, v) != refPartEmpty(d, a, v) ||
			d.PartFull(a, v) != refPartFull(d, a, v) ||
			d.PartCount(a, v) != refPartCount(d, a, v) {
			t.Fatalf("Part ops disagree on %s var %d", d.String(a), v)
		}
	}

	dst := d.NewCube()
	ok := d.Intersect(dst, a, b)
	want, wok := refIntersect(d, a, b)
	if ok != wok || !Equal(dst, want) {
		t.Fatalf("Intersect(%s,%s): (%s,%v), reference (%s,%v)",
			d.String(a), d.String(b), d.String(dst), ok, d.String(want), wok)
	}

	// Cofactor against a non-empty cube p; dst carries stale bits to
	// exercise the masked write.
	p := randCube(rng, d)
	for v := 0; v < d.NumVars(); v++ {
		if d.PartEmpty(p, v) {
			d.Set(p, v, 0)
		}
	}
	dst = randCube(rng, d)
	ok = d.Cofactor(dst, a, p)
	want, wok = refCofactor(d, a, p)
	if ok != wok || ok && !Equal(dst, want) {
		t.Fatalf("Cofactor(%s,%s): (%s,%v), reference (%v,%v)",
			d.String(a), d.String(p), d.String(dst), ok, want, wok)
	}

	dst = d.NewCube()
	ok = d.Consensus(dst, a, b)
	want, wok = refConsensus(d, a, b)
	if ok != wok || ok && !Equal(dst, want) {
		t.Fatalf("Consensus(%s,%s): (%s,%v), reference (%v,%v)",
			d.String(a), d.String(b), d.String(dst), ok, want, wok)
	}

	if d.NumVars() == 0 {
		return
	}
	v := rng.Intn(d.NumVars())
	got, ref := a.Clone(), a.Clone()
	d.SetAll(got, v)
	refSetAll(d, ref, v)
	if !Equal(got, ref) {
		t.Fatalf("SetAll(%s,%d): %s, reference %s", d.String(a), v, d.String(got), d.String(ref))
	}
	d.ClearAll(got, v)
	refClearAll(d, ref, v)
	if !Equal(got, ref) {
		t.Fatalf("ClearAll: %s, reference %s", d.String(got), d.String(ref))
	}
}

func TestOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		d := randDomain(rng, 1)
		if d.Words() != 1 {
			t.Fatalf("randDomain(1) produced a %d-word domain (%d bits)", d.Words(), d.Bits())
		}
		checkOpsMatchOracle(t, rng, d)
	}
}

// Multi-word domains, and the edge shapes: a binary field straddling bit
// 63, one ending exactly there, one-valued variables, multi-valued fields
// spanning three and four words, and the zero-variable domain.
func TestMultiWordOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 2000; iter++ {
		words := 2 + rng.Intn(4)
		d := randDomain(rng, words)
		if d.Words() != words {
			t.Fatalf("randDomain(%d) produced a %d-word domain (%d bits)", words, d.Words(), d.Bits())
		}
		checkOpsMatchOracle(t, rng, d)
	}
	for _, e := range []struct {
		name string
		d    *Domain
	}{
		{"zero-variable", New()},
		{"one-valued", New(1, 2, 1, 3, 1)},
		{"only one-valued", New(1, 1, 1)},
		{"binary at bit 63", New(append(repeatSize(2, 31), 1, 2, 2)...)},
		{"binary ending at bit 63", Binary(32)},
		{"3-word field", New(2, 2, 150, 2)},
		{"4-word field", New(3, 200, 2, 1, 60)},
		{"4-word binary", Binary(97)},
	} {
		for iter := 0; iter < 300; iter++ {
			checkOpsMatchOracle(t, rng, e.d)
		}
		t.Logf("%s: %d words, %d bits", e.name, e.d.Words(), e.d.Bits())
	}
}

func repeatSize(s, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// The width sweep: binary domains from zero variables to five words get
// the right word count, and their universe is non-empty, full in every
// variable, and counts 2^nv minterms (saturating).
func TestLayoutWidthSweep(t *testing.T) {
	for nv := 0; nv <= 160; nv++ {
		d := Binary(nv)
		words := max(1, (2*nv+63)/64)
		if d.Words() != words || d.Layout().K != words {
			t.Fatalf("Binary(%d) (%d bits): %d words, layout %d, want %d",
				nv, d.Bits(), d.Words(), d.Layout().K, words)
		}
		u := d.Universe()
		if !Equal(u, refUniverse(d)) {
			t.Fatalf("Binary(%d): universe %s", nv, d.String(u))
		}
		if d.IsEmpty(u) || d.FullParts(u) != nv || d.Distance(u, u) != 0 {
			t.Fatalf("Binary(%d): universe mishandled", nv)
		}
		want := ^uint64(0)
		if nv < 64 {
			want = 1 << nv
		}
		if got := d.Minterms(u); got != want {
			t.Fatalf("Binary(%d): universe has %d minterms, want %d", nv, got, want)
		}
		if d.IsEmpty(d.NewCube()) != (nv > 0) {
			t.Fatalf("Binary(%d): empty cube mishandled", nv)
		}
	}
}

func TestBinaryInterned(t *testing.T) {
	d1 := BinaryInterned(7)
	d2 := BinaryInterned(7)
	if d1 != d2 {
		t.Fatal("BinaryInterned(7) returned distinct domains")
	}
	if d1.NumVars() != 7 || d1.Bits() != 14 || d1.Words() != 1 {
		t.Fatalf("interned domain malformed: %d vars, %d bits", d1.NumVars(), d1.Bits())
	}
	if BinaryInterned(internMax+1).NumVars() != internMax+1 {
		t.Fatal("out-of-range fallback broken")
	}
}
