package exact

import (
	"context"
	"math/rand"
	"testing"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/espresso"
	"picola/internal/obs"
)

// randFunc builds a random fr-form function (ON + OFF from a random
// partition of the minterms, remainder DC) over inputs binary variables
// and, optionally, a multi-valued output variable.
func randFunc(rng *rand.Rand, inputs, no int) *espresso.Function {
	var d *cube.Domain
	outVar := -1
	if no > 1 {
		d = cube.WithOutputs(inputs, no)
		outVar = inputs
	} else {
		d = cube.Binary(inputs)
	}
	on, off := cover.New(d), cover.New(d)
	nm := 1 << uint(inputs)
	for x := 0; x < nm; x++ {
		for o := 0; o < no; o++ {
			r := rng.Intn(3)
			if r == 2 {
				continue // DC by omission
			}
			c := d.NewCube()
			for v := 0; v < inputs; v++ {
				d.Set(c, v, x>>uint(v)&1)
			}
			if outVar >= 0 {
				d.Set(c, outVar, o)
			}
			if r == 0 {
				on.Add(c)
			} else {
				off.Add(c)
			}
		}
	}
	return &espresso.Function{D: d, On: on, Off: off}
}

// TestCounterMatchesMinimize is the parity gate: the pooled count-only
// path must return exactly len(Minimize(f).Cubes) on every function —
// Minimize is the oracle.
func TestCounterMatchesMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ct Counter
	for iter := 0; iter < 400; iter++ {
		inputs := rng.Intn(7)
		no := 1
		if rng.Intn(2) == 0 {
			no = 1 + rng.Intn(4)
		}
		f := randFunc(rng, inputs, no)
		min, err := Minimize(f, inputs)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ct.Count(f, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if n != min.Len() {
			t.Fatalf("iter %d (inputs=%d no=%d): Counter %d, Minimize %d", iter, inputs, no, n, min.Len())
		}
	}
}

// The map fallback above denseMax must agree too.
func TestCounterMapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ct Counter
	f := randFunc(rng, denseMax+1, 1)
	min, err := Minimize(f, denseMax+1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ct.Count(f, denseMax+1)
	if err != nil {
		t.Fatal(err)
	}
	if n != min.Len() {
		t.Fatalf("fallback: Counter %d, Minimize %d", n, min.Len())
	}
}

// Reuse across widths must not leak state between runs (the dense tag
// table is shared).
func TestCounterReuseAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ct Counter
	widths := []int{6, 2, 5, 0, 3, 6, 1, 4}
	for _, w := range widths {
		f := randFunc(rng, w, 1)
		min, err := Minimize(f, w)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ct.Count(f, w)
		if err != nil {
			t.Fatal(err)
		}
		if n != min.Len() {
			t.Fatalf("width %d: Counter %d, Minimize %d", w, n, min.Len())
		}
	}
}

// Validation errors must mirror Minimize.
func TestCounterValidation(t *testing.T) {
	var ct Counter
	d := cube.Binary(2)
	on := cover.FromStrings(d, "01")
	off := cover.FromStrings(d, "01")
	if _, err := ct.Count(&espresso.Function{D: d, On: on, Off: off}, 2); err == nil {
		t.Fatal("overlapping ON/OFF must error")
	}
	if _, err := ct.Count(&espresso.Function{D: d, On: on}, 5); err == nil {
		t.Fatal("inputs beyond the domain must error")
	}
}

// TestCounterRecordsAllMetrics: Count and CountTT advance the
// espresso.exact_minimize counter, its .time timer and its _ns latency
// histogram together, once per call, as Minimize does.
func TestCounterRecordsAllMetrics(t *testing.T) {
	read := func() (calls, timed, observed int64) {
		s := obs.Default.Snapshot()
		return s.Counters["espresso.exact_minimize"],
			s.Timers["espresso.exact_minimize.time"].Count,
			s.Histograms["espresso.exact_minimize_ns"].Count
	}
	var ct Counter
	f := randFunc(rand.New(rand.NewSource(1)), 4, 2)
	for _, count := range []func() error{
		func() error { _, err := ct.Count(f, 4); return err },
		func() error { _, err := Minimize(f, 4); return err },
		func() error { _, err := ct.CountTT(context.Background(), 4, 0b1011, 0b0100); return err },
	} {
		c0, t0, h0 := read()
		const calls = 3
		for i := 0; i < calls; i++ {
			if err := count(); err != nil {
				t.Fatal(err)
			}
		}
		c1, t1, h1 := read()
		if c1-c0 != calls || t1-t0 != calls || h1-h0 != calls {
			t.Fatalf("%d calls advanced counter %d, timer %d, histogram %d", calls, c1-c0, t1-t0, h1-h0)
		}
	}
}
