package espresso

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/obs"
)

// ttCase is one truth-table minimization input: the ON minterms in cover
// order, the OFF-set mask and the don't-care cover as cube words.
type ttCase struct {
	nv  int
	on  []uint64
	off uint64
	dc  []uint64
}

func mintermCube(d *cube.Domain, nv int, m uint64) cube.Cube {
	c := d.NewCube()
	for v := 0; v < nv; v++ {
		d.Set(c, v, int(m>>uint(v)&1))
	}
	return c
}

// function builds the cover-path input of the case: ON and OFF as
// minterm covers (OFF in ascending order), DC as given.
func (c ttCase) function() *Function {
	d := cube.BinaryInterned(c.nv)
	f := &Function{D: d, On: cover.New(d), Off: cover.New(d), DC: cover.New(d)}
	for _, m := range c.on {
		f.On.Add(mintermCube(d, c.nv, m))
	}
	for x := uint64(0); x < 1<<uint(c.nv); x++ {
		if c.off>>x&1 != 0 {
			f.Off.Add(mintermCube(d, c.nv, x))
		}
	}
	for _, w := range c.dc {
		f.DC.Add(cube.Cube{w})
	}
	return f
}

// complementDC is the don't-care cover eval builds: the complement of the
// used minterms, listed in the given order.
func complementDC(nv int, used []uint64) []uint64 {
	d := cube.BinaryInterned(nv)
	u := cover.New(d)
	for _, m := range used {
		u.Add(mintermCube(d, nv, m))
	}
	var out []uint64
	for _, c := range u.Complement().Cubes {
		out = append(out, c[0])
	}
	return out
}

// mintermDC lists the minterms of dcMask as cubes in a shuffled order, a
// second shape of don't-care cover with the same minterms.
func mintermDC(rng *rand.Rand, nv int, dcMask uint64) []uint64 {
	d := cube.BinaryInterned(nv)
	var out []uint64
	for x := uint64(0); x < 1<<uint(nv); x++ {
		if dcMask>>x&1 != 0 {
			out = append(out, mintermCube(d, nv, x)[0])
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// minimizeCounts returns the cover-path result as words and the
// espresso.iterations it advanced.
func minimizeCounts(ctx context.Context, c ttCase) ([]uint64, int64, error) {
	it0 := mIterations.Value()
	min, err := MinimizeContext(ctx, c.function())
	if err != nil {
		return nil, mIterations.Value() - it0, err
	}
	words := []uint64{}
	for _, cu := range min.Cubes {
		words = append(words, cu[0])
	}
	return words, mIterations.Value() - it0, nil
}

// checkTT holds the truth-table path to the cover path on one case: the
// same error, the same cover word for word and the same iterations.
func checkTT(t *testing.T, k *Counter, c ttCase) {
	t.Helper()
	want, wantIt, wantErr := minimizeCounts(context.Background(), c)
	it0 := mIterations.Value()
	got, err := k.minimize(context.Background(), c.nv, c.on, c.off, c.dc)
	gotIt := mIterations.Value() - it0
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%+v: error %v, cover path %v", c, err, wantErr)
	}
	if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("%+v:\n got cover %x\nwant cover %x", c, got, want)
	}
	if gotIt != wantIt {
		t.Fatalf("%+v: %d iterations, cover path %d", c, gotIt, wantIt)
	}
}

// TestCountTTMatchesCoverExhaustive runs every ON/OFF/DC partition of
// the minterms at nv ≤ 3, with the don't-care cover both as eval builds it
// and as shuffled minterms.
func TestCountTTMatchesCoverExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var k Counter
	for nv := 0; nv <= 3; nv++ {
		nm := 1 << uint(nv)
		total := 1
		for i := 0; i < nm; i++ {
			total *= 3
		}
		for code := 0; code < total; code++ {
			var on []uint64
			var off, used uint64
			x := code
			for m := uint64(0); m < uint64(nm); m++ {
				switch x % 3 {
				case 0:
					on = append(on, m)
					used |= 1 << m
				case 1:
					off |= 1 << m
					used |= 1 << m
				}
				x /= 3
			}
			var usedList []uint64
			for m := uint64(0); m < uint64(nm); m++ {
				if used>>m&1 != 0 {
					usedList = append(usedList, m)
				}
			}
			full := ^uint64(0) >> uint(64-nm)
			checkTT(t, &k, ttCase{nv, on, off, complementDC(nv, usedList)})
			checkTT(t, &k, ttCase{nv, on, off, mintermDC(rng, nv, full&^used)})
		}
	}
}

// TestCountTTMatchesCoverRandom runs seeded random and face-shaped
// functions at nv 4–6: random ones draw each minterm ON, OFF or DC, list
// ON in a shuffled order with occasional repeats and take either don't-
// care shape; face-shaped ones assign distinct codes to symbols, make a
// random subset members and build ON, OFF and DC the way eval does.
func TestCountTTMatchesCoverRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 20000
	if raceEnabled {
		n = 2000
	}
	var k Counter
	for i := 0; i < n; i++ {
		nv := 4 + i%3
		nm := 1 << uint(nv)
		full := ^uint64(0) >> uint(64-nm)
		if i%2 == 0 {
			var on []uint64
			var off, used uint64
			for m := uint64(0); m < uint64(nm); m++ {
				switch rng.Intn(3) {
				case 0:
					on = append(on, m)
					used |= 1 << m
				case 1:
					off |= 1 << m
					used |= 1 << m
				}
			}
			rng.Shuffle(len(on), func(a, b int) { on[a], on[b] = on[b], on[a] })
			if len(on) > 0 && rng.Intn(8) == 0 {
				on = append(on, on[rng.Intn(len(on))])
			}
			dc := mintermDC(rng, nv, full&^used)
			if rng.Intn(2) == 0 {
				var usedList []uint64
				for m := uint64(0); m < uint64(nm); m++ {
					if used>>m&1 != 0 {
						usedList = append(usedList, m)
					}
				}
				dc = complementDC(nv, usedList)
			}
			checkTT(t, &k, ttCase{nv, on, off, dc})
			continue
		}
		syms := nm/2 + 1 + rng.Intn(nm/2)
		codes := rng.Perm(nm)[:syms]
		var on, used []uint64
		var off uint64
		for _, x := range codes {
			used = append(used, uint64(x))
			if rng.Intn(2) == 0 {
				on = append(on, uint64(x))
			} else {
				off |= 1 << uint(x)
			}
		}
		checkTT(t, &k, ttCase{nv, on, off, complementDC(nv, used)})
	}
}

// TestCountTTErrors: an ON∩OFF input fails with the cover path's message,
// and a cancelled context returns the wrapped context error the cover
// path returns, before any metric moves.
func TestCountTTErrors(t *testing.T) {
	var k Counter
	bad := ttCase{nv: 3, on: []uint64{1, 6, 5}, off: 1<<6 | 1<<2}
	bad.dc = complementDC(3, []uint64{1, 2, 5, 6})
	_, wantErr := MinimizeContext(context.Background(), bad.function())
	_, err := k.CountTT(context.Background(), bad.nv, bad.on, bad.off, bad.dc)
	if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("ON∩OFF: error %v, cover path %v", err, wantErr)
	}

	ok := ttCase{nv: 3, on: []uint64{1, 5}, off: 1 << 2}
	ok.dc = complementDC(3, []uint64{1, 2, 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, wantErr = MinimizeContext(ctx, ok.function())
	calls := mMinimize.Value()
	_, err = k.CountTT(ctx, ok.nv, ok.on, ok.off, ok.dc)
	if !errors.Is(err, context.Canceled) || err.Error() != wantErr.Error() {
		t.Fatalf("cancelled: error %v, cover path %v", err, wantErr)
	}
	if mMinimize.Value() != calls {
		t.Fatal("a cancelled call counted a minimization")
	}
	if _, err := k.CountTT(context.Background(), 7, nil, 0, nil); err == nil {
		t.Fatal("7 inputs accepted")
	}
}

// TestCountTTRecordsMetrics: one CountTT call moves every espresso metric
// the cover path moves, by the same amounts.
func TestCountTTRecordsMetrics(t *testing.T) {
	c := ttCase{nv: 4, on: []uint64{0, 3, 5, 6, 9, 10, 12, 15}, off: 0x0ff0 &^ (1<<5 | 1<<6 | 1<<9 | 1<<10)}
	c.dc = complementDC(4, []uint64{0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15})
	type reading struct{ calls, iters, timed, ns, onCount, onSum int64 }
	read := func() reading {
		s := obs.Default.Snapshot()
		return reading{s.Counters["espresso.minimize"], s.Counters["espresso.iterations"],
			s.Timers["espresso.minimize.time"].Count, s.Histograms["espresso.minimize_ns"].Count,
			s.Histograms["espresso.on_size"].Count, s.Histograms["espresso.on_size"].Sum}
	}
	delta := func(run func()) reading {
		r0 := read()
		run()
		r1 := read()
		return reading{r1.calls - r0.calls, r1.iters - r0.iters, r1.timed - r0.timed,
			r1.ns - r0.ns, r1.onCount - r0.onCount, r1.onSum - r0.onSum}
	}
	want := delta(func() {
		if _, err := MinimizeContext(context.Background(), c.function()); err != nil {
			t.Fatal(err)
		}
	})
	var k Counter
	got := delta(func() {
		if _, err := k.CountTT(context.Background(), c.nv, c.on, c.off, c.dc); err != nil {
			t.Fatal(err)
		}
	})
	if got != want || want.calls != 1 || want.iters == 0 {
		t.Fatalf("CountTT moved %+v, cover path %+v", got, want)
	}
}

// TestAllocsCountTT: on a warmed Counter one nv = 5 heuristic count
// allocates nothing.
func TestAllocsCountTT(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	rng := rand.New(rand.NewSource(5))
	var cases []ttCase
	for len(cases) < 8 {
		codes := rng.Perm(32)[:24]
		var on []uint64
		var off uint64
		for i, x := range codes {
			if i%3 == 0 {
				on = append(on, uint64(x))
			} else {
				off |= 1 << uint(x)
			}
		}
		used := make([]uint64, len(codes))
		for i, x := range codes {
			used[i] = uint64(x)
		}
		cases = append(cases, ttCase{5, on, off, complementDC(5, used)})
	}
	var k Counter
	run := func() {
		for _, c := range cases {
			if _, err := k.CountTT(context.Background(), c.nv, c.on, c.off, c.dc); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("warmed CountTT allocates %.1f objects/run, want 0", allocs)
	}
}

// BenchmarkCountTT compares one face-shaped heuristic count (¾·2^nv
// used codes, a third of them members) on the truth-table path with the
// cover path it mirrors, at nv 4, 5 and 6.
func BenchmarkCountTT(b *testing.B) {
	for nv := 4; nv <= TTMaxInputs; nv++ {
		rng := rand.New(rand.NewSource(9))
		nm := 1 << uint(nv)
		c := ttCase{nv: nv}
		var used []uint64
		for i, x := range rng.Perm(nm)[:3*nm/4] {
			used = append(used, uint64(x))
			if i%3 == 0 {
				c.on = append(c.on, uint64(x))
			} else {
				c.off |= 1 << uint(x)
			}
		}
		c.dc = complementDC(nv, used)
		b.Run(fmt.Sprintf("nv%d/tt", nv), func(b *testing.B) {
			var k Counter
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.CountTT(context.Background(), c.nv, c.on, c.off, c.dc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("nv%d/cover", nv), func(b *testing.B) {
			f := c.function()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MinimizeContext(context.Background(), f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
