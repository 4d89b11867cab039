package exact

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/espresso"
)

// ttFunc builds the fr-form function (ON and OFF minterm covers, the rest
// DC) whose truth tables are on and off.
func ttFunc(nv int, on, off uint64) *espresso.Function {
	d := cube.Binary(nv)
	f := &espresso.Function{D: d, On: cover.New(d), Off: cover.New(d)}
	for x := 0; x < 1<<uint(nv); x++ {
		c := d.NewCube()
		for v := 0; v < nv; v++ {
			d.Set(c, v, x>>uint(v)&1)
		}
		if on>>uint(x)&1 != 0 {
			f.On.Add(c)
		}
		if off>>uint(x)&1 != 0 {
			f.Off.Add(c.Clone())
		}
	}
	return f
}

// faceTT draws a face-shaped constraint function: n ≈ ¾·2^nv distinct
// used codes, 2…n−1 of them members (ON), the other used codes OFF and
// the unused codes DC.
func faceTT(rng *rand.Rand, nv int) (on, off uint64) {
	nm := 1 << uint(nv)
	n := (3*nm + 3) / 4
	if n < 3 {
		n = nm
	}
	codes := rng.Perm(nm)[:n]
	members := 2
	if n > 3 {
		members += rng.Intn(n - 2)
	}
	for i, x := range codes {
		if i < members {
			on |= 1 << uint(x)
		} else {
			off |= 1 << uint(x)
		}
	}
	return on, off
}

// randTT draws each minterm ON, OFF or DC with equal odds.
func randTT(rng *rand.Rand, nv int) (on, off uint64) {
	for x := 0; x < 1<<uint(nv); x++ {
		switch rng.Intn(3) {
		case 0:
			on |= 1 << uint(x)
		case 1:
			off |= 1 << uint(x)
		}
	}
	return on, off
}

// denseCount runs f through the dense path regardless of its width: the
// oracle the truth-table path is held to.
func (ct *Counter) denseCount(f *espresso.Function, inputs int) (int, error) {
	nm := 1 << uint(inputs)
	if err := ct.classify(f, inputs, -1, 1, nm); err != nil {
		return 0, err
	}
	return ct.countDense(inputs, 1, nm)
}

// checkTT asserts that the truth-table path — reached through Count's
// width dispatch and through CountTT — and the dense path agree on the
// count, the prime list in order and the covering node count, under the
// node budget maxNodes (0: the default, where Minimize must agree too).
func checkTT(t *testing.T, tt, dense *Counter, nv int, on, off uint64, maxNodes int) {
	t.Helper()
	tt.maxNodes, dense.maxNodes = maxNodes, maxNodes
	f := ttFunc(nv, on, off)
	want, err := dense.denseCount(f, nv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tt.Count(f, nv)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := tt.CountTT(context.Background(), nv, on, off)
	if err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("nv=%d on=%#x off=%#x budget=%d", nv, on, off, maxNodes)
	if got != want || direct != want {
		t.Fatalf("%s: Count %d, CountTT %d, dense %d", where, got, direct, want)
	}
	if on == 0 {
		return // neither path searches
	}
	if !reflect.DeepEqual(tt.primes, dense.primes) {
		t.Fatalf("%s: primes differ:\ntt    %v\ndense %v", where, tt.primes, dense.primes)
	}
	if a, b := tt.solver64.Nodes(), dense.solver.Nodes(); a != b {
		t.Fatalf("%s: search nodes: tt %d, dense %d", where, a, b)
	}
	if maxNodes == 0 {
		min, err := Minimize(f, nv)
		if err != nil {
			t.Fatal(err)
		}
		if min.Len() != want {
			t.Fatalf("%s: Minimize %d cubes, counters %d", where, min.Len(), want)
		}
	}
}

// TestCountTTMatchesDense is the truth-table path's parity gate:
// exhaustive over every ON/OFF/DC function of up to 3 inputs, then seeded
// random and face-shaped functions of 4–6 inputs.
func TestCountTTMatchesDense(t *testing.T) {
	var tt, dense Counter
	for nv := 0; nv <= 3; nv++ {
		nm := 1 << uint(nv)
		total := 1
		for i := 0; i < nm; i++ {
			total *= 3
		}
		for code := 0; code < total; code++ {
			var on, off uint64
			for x, c := 0, code; x < nm; x, c = x+1, c/3 {
				switch c % 3 {
				case 0:
					on |= 1 << uint(x)
				case 1:
					off |= 1 << uint(x)
				}
			}
			checkTT(t, &tt, &dense, nv, on, off, 0)
		}
	}
	rng := rand.New(rand.NewSource(15))
	iters := 10000
	if testing.Short() || raceEnabled {
		iters = 1000
	}
	for i := 0; i < iters; i++ {
		nv := 4 + i%3
		on, off := randTT(rng, nv)
		checkTT(t, &tt, &dense, nv, on, off, 0)
		on, off = faceTT(rng, nv)
		checkTT(t, &tt, &dense, nv, on, off, 0)
	}
}

// TestCountTTBudgetParity lowers the node budget on both paths until the
// search is cut: the counts stay identical because the visit order is.
func TestCountTTBudgetParity(t *testing.T) {
	var tt, dense Counter
	rng := rand.New(rand.NewSource(16))
	cut := 0
	for i := 0; i < 600; i++ {
		nv := 5 + i%2
		on, off := randTT(rng, nv)
		if i%3 == 0 {
			on, off = faceTT(rng, nv)
		}
		budget := 1 + rng.Intn(40)
		checkTT(t, &tt, &dense, nv, on, off, budget)
		if on != 0 && tt.solver64.Nodes() > budget {
			cut++
		}
	}
	if cut < 50 {
		t.Fatalf("only %d of 600 searches hit the budget; the test no longer exercises the cut", cut)
	}
}

// TestCountTTErrors: the overlap error names the lowest shared minterm,
// as classify does, and widths beyond the word are refused.
func TestCountTTErrors(t *testing.T) {
	var ct Counter
	on, off := uint64(0b10110), uint64(0b10100)
	_, want := ct.Count(ttFunc(3, on, off), 3)
	_, got := ct.CountTT(context.Background(), 3, on, off)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("CountTT error %v, Count error %v", got, want)
	}
	if _, err := ct.CountTT(context.Background(), TTMaxInputs+1, 1, 0); err == nil {
		t.Fatal("a function wider than one word must be refused")
	}
}

// TestAllocsCountTT: a warmed Counter counts an nv = 5 and an nv = 6
// face-shaped function without heap allocation.
func TestAllocsCountTT(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; the plain build runs this gate")
	}
	rng := rand.New(rand.NewSource(17))
	var ct Counter
	ctx := context.Background()
	for _, nv := range []int{5, 6} {
		on, off := faceTT(rng, nv)
		if _, err := ct.CountTT(ctx, nv, on, off); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ct.CountTT(ctx, nv, on, off); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("nv=%d: warmed CountTT allocates %.1f times per call", nv, allocs)
		}
	}
}

// BenchmarkCountTT compares the truth-table kernel with the dense path
// on face-shaped functions.
func BenchmarkCountTT(b *testing.B) {
	for _, nv := range []int{4, 5, 6} {
		rng := rand.New(rand.NewSource(int64(nv)))
		type fn struct {
			on, off uint64
			f       *espresso.Function
		}
		fs := make([]fn, 64)
		for i := range fs {
			on, off := faceTT(rng, nv)
			fs[i] = fn{on, off, ttFunc(nv, on, off)}
		}
		b.Run(fmt.Sprintf("nv=%d/kernel", nv), func(b *testing.B) {
			var ct Counter
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				f := &fs[i%len(fs)]
				if _, err := ct.CountTT(ctx, nv, f.on, f.off); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("nv=%d/dense", nv), func(b *testing.B) {
			var ct Counter
			for i := 0; i < b.N; i++ {
				if _, err := ct.denseCount(fs[i%len(fs)].f, nv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
