package exact

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"picola/internal/covering"
	"picola/internal/ctxutil"
	"picola/internal/espresso"
)

// TTMaxInputs is the widest single-output function the truth-table path
// takes: its 2^6 minterms fill one uint64. The truth-table espresso
// shares the bound.
const TTMaxInputs = espresso.TTMaxInputs

var (
	// subcube[D] holds the minterms of the cube with base 0 and dash set
	// D; the cube with base x (x&D == 0) is subcube[D] << x.
	subcube [1 << TTMaxInputs]uint64
	// dashOrder lists the dash sets by size, then by the lexicographic
	// order of their ascending variable tuples; the sets of size k are
	// dashOrder[dashStart[k]:dashStart[k+1]].
	dashOrder [1 << TTMaxInputs]uint8
	dashStart [TTMaxInputs + 2]int
)

func init() {
	subcube[0] = 1
	for d := 1; d < len(subcube); d++ {
		v := bits.TrailingZeros(uint(d))
		p := subcube[d&(d-1)]
		subcube[d] = p | p<<(1<<uint(v))
	}
	n := 0
	var rec func(d uint8, next, left int)
	rec = func(d uint8, next, left int) {
		if left == 0 {
			dashOrder[n] = d
			n++
			return
		}
		for v := next; v < TTMaxInputs; v++ {
			rec(d|1<<uint(v), v+1, left-1)
		}
	}
	for k := 0; k <= TTMaxInputs; k++ {
		dashStart[k] = n
		rec(0, 0, k)
	}
	dashStart[TTMaxInputs+1] = n
}

// CountTT is Count for a single-output function of nv ≤ TTMaxInputs
// inputs given as truth tables: bit x of on is set when minterm x is ON,
// bit x of off when it is OFF, and every other minterm is a don't-care.
// It returns what Count returns for the same function, the ON/OFF
// overlap error included, and records the same metrics once per call.
func (ct *Counter) CountTT(ctx context.Context, nv int, on, off uint64) (int, error) {
	if err := ctxutil.Check(ctx, "exact.count"); err != nil {
		return 0, err
	}
	mMinimize.Inc()
	t0 := time.Now()
	n, err := ct.truthTable(nv, on, off)
	observe(t0)
	return n, err
}

// truthTable checks the width and the ON/OFF split, then counts.
func (ct *Counter) truthTable(nv int, on, off uint64) (int, error) {
	if nv < 0 || nv > TTMaxInputs {
		return 0, fmt.Errorf("exact: %d inputs exceeds the truth-table limit of %d", nv, TTMaxInputs)
	}
	full := ^uint64(0) >> uint(64-1<<uint(nv))
	if x := on & off & full; x != 0 {
		return 0, fmt.Errorf("exact: ON and OFF overlap at minterm %d", bits.TrailingZeros64(x))
	}
	return ct.countTT(nv, on&full, full&^off), nil
}

// countTT is the count-only exact minimizer on one word. valid[D] holds
// the bases x (x&D == 0) whose cube (x, D) lies inside care, built from D
// minus its lowest dash v: both halves of the cube must be valid. A valid
// cube is prime when no one-dash enlargement is. The primes are emitted
// in the order generatePrimesDense finds them — dash count, then base,
// then dash tuple (DESIGN.md §10 has the proof) — so Solver64, which
// searches node for node like covering.Solver, returns the dense count.
//
//picola:hot
func (ct *Counter) countTT(nv int, on, care uint64) int {
	ct.primes = ct.primes[:0]
	ct.ttCols = ct.ttCols[:0]
	if on == 0 {
		return 0
	}
	nd := 1 << uint(nv)
	valid, pm := &ct.valid, &ct.ttPrime
	valid[0] = care
	for d := 1; d < nd; d++ {
		v := bits.TrailingZeros(uint(d))
		p := valid[d&(d-1)]
		valid[d] = p & (p >> (1 << uint(v))) & espresso.Mask0[v]
	}
	for d := 0; d < nd; d++ {
		p := valid[d]
		for v := 0; v < nv && p != 0; v++ {
			if b := 1 << uint(v); d&b == 0 {
				e := valid[d|b]
				p &^= e | e<<uint(b)
			}
		}
		pm[d] = p
	}
	for k := 0; k <= nv; k++ {
		var ds [20]uint8 // C(6,3): the most dash sets of one size
		nds := 0
		var bases uint64
		for _, d := range dashOrder[dashStart[k]:dashStart[k+1]] {
			if int(d) < nd && pm[d] != 0 {
				ds[nds] = d
				nds++
				bases |= pm[d]
			}
		}
		for ; bases != 0; bases &= bases - 1 {
			x := bits.TrailingZeros64(bases)
			for _, d := range ds[:nds] {
				if pm[d]>>uint(x)&1 != 0 {
					ct.primes = append(ct.primes, prime{icube{uint32(x), uint32(d)}, 1})
					ct.ttCols = append(ct.ttCols, subcube[d]<<uint(x)&on)
				}
			}
		}
	}
	return ct.solver64.Count(ct.ttCols, covering.Options{MaxNodes: ct.maxNodes})
}
