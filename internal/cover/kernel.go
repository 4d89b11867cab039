package cover

import (
	"sync"

	"picola/internal/cube"
)

// Tautology kernels. Tautology and CoversCube run the unate recursion over
// plain uint64 rows carved from a pooled bump arena instead of
// materializing a fresh *Cover and fresh cubes per cofactor. Single-word
// domains (the encoder's code spaces: nv <= 8 bits) take taut1; every
// other domain — the symbolic covers of Table I reach 352 bits — takes
// tautW, which keeps each cube as a row of Layout.K words. Both mirror the
// generic recursion (reference_test.go, the oracle they are checked
// against) decision for decision — same quick accepts/rejects, same
// splitting variable, same visit order — so cover.tautology_nodes counts
// identically.

// taut1 is the pooled scratch of one kernel run: a bump arena of cofactored
// cover words. Child covers are carved as sub-slices; reallocation during
// deeper recursion is safe because carved slices are never written after
// creation.
type taut1 struct {
	buf []uint64
}

var taut1Pool = sync.Pool{New: func() any { return new(taut1) }}

// rec is the unate recursion over a single-word cover. It must keep the
// exact decision structure of the generic recursion (tautologyRef).
//
//picola:hot
func (s *taut1) rec(d *cube.Domain, cs []uint64) bool {
	mTautologyNodes.Inc()
	full := d.FullMask()
	for _, w := range cs {
		if w&full == full {
			return true
		}
	}
	if len(cs) == 0 {
		return false
	}
	var or uint64
	for _, w := range cs {
		or |= w
	}
	vmask := d.VarMasks()
	for _, m := range vmask {
		if or&m != m {
			return false
		}
	}
	best, bestN := -1, 0
	for v, m := range vmask {
		n := 0
		for _, w := range cs {
			if w&m != m {
				n++
			}
		}
		if n > bestN {
			best, bestN = v, n
		}
	}
	if best < 0 {
		return true
	}
	bm := vmask[best]
	for val := 0; val < d.Size(best); val++ {
		vcw := (full &^ bm) | 1<<uint(d.BitOf(best, val))
		lo := len(s.buf)
		s.cofactorInto(d, cs, vcw)
		sub := s.buf[lo:len(s.buf):len(s.buf)]
		ok := s.rec(d, sub)
		s.buf = s.buf[:lo]
		if !ok {
			return false
		}
	}
	return true
}

// cofactorInto appends to the arena the cofactor of each cover word by the
// cube word p: words intersecting p, with fields widened by ^p.
//
//picola:hot
func (s *taut1) cofactorInto(d *cube.Domain, cs []uint64, p uint64) {
	full := d.FullMask()
	vmask := d.VarMasks()
outer:
	for _, w := range cs {
		x := w & p
		for _, m := range vmask {
			if x&m == 0 {
				continue outer
			}
		}
		s.buf = append(s.buf, (w|^p)&full)
	}
}

// tautology1 runs the kernel over the cover's cubes.
//
//picola:hot
func (f *Cover) tautology1() bool {
	s := taut1Pool.Get().(*taut1)
	defer taut1Pool.Put(s)
	s.buf = s.buf[:0]
	full := f.D.FullMask()
	for _, c := range f.Cubes {
		s.buf = append(s.buf, c[0]&full)
	}
	return s.rec(f.D, s.buf)
}

// coversCube1 runs the kernel on the cover cofactored by c, fused so the
// intermediate cover is never materialized.
//
//picola:hot
func (f *Cover) coversCube1(c cube.Cube) bool {
	s := taut1Pool.Get().(*taut1)
	defer taut1Pool.Put(s)
	s.buf = s.buf[:0]
	d := f.D
	full := d.FullMask()
	vmask := d.VarMasks()
	p := c[0]
outer:
	for _, k := range f.Cubes {
		x := k[0] & p
		for _, m := range vmask {
			if x&m == 0 {
				continue outer
			}
		}
		s.buf = append(s.buf, (k[0]|^p)&full)
	}
	return s.rec(d, s.buf)
}

// tautW is the pooled scratch of one wide-kernel run: a bump arena of
// cofactored rows, Layout.K words each, carved exactly as in taut1.
type tautW struct {
	buf []uint64
}

var tautWPool = sync.Pool{New: func() any { return new(tautW) }}

// rec is the unate recursion over rows of l.K words, with taut1's decision
// structure. A cofactor by a value cube keeps the rows holding that value
// and ORs the split field to full. That is the whole intersection test
// only when every field of a row is non-empty, which holds for every row
// below the root: a row enters a cofactor only when it intersects the
// cofactoring cube, and the result contains that intersection. At the
// root of a direct Tautology call a cube may have an empty field; the
// oracle keeps such cubes in the root's decisions and drops them at its
// first split, so the caller sets check when one is present and the split
// then tests every field.
//
//picola:hot
func (s *tautW) rec(d *cube.Domain, l *cube.Layout, cs []uint64, check bool) bool {
	mTautologyNodes.Inc()
	k := l.K
	full := l.Full
	for i := 0; i < len(cs); i += k {
		if isFull(l, cs[i:i+k]) {
			return true
		}
	}
	if len(cs) == 0 {
		return false
	}
	for w, m := range full {
		var or uint64
		for i := w; i < len(cs); i += k {
			or |= cs[i]
		}
		if or&m != m {
			return false
		}
	}
	best, bestN := -1, 0
	for v := range l.Lo {
		m := l.Mask[v*k : v*k+k]
		lo, hi := l.Lo[v], l.Hi[v]
		n := 0
		for i := 0; i < len(cs); i += k {
			r := cs[i : i+k]
			for w := lo; w <= hi; w++ {
				if r[w]&m[w] != m[w] {
					n++
					break
				}
			}
		}
		if n > bestN {
			best, bestN = v, n
		}
	}
	if best < 0 {
		return true
	}
	m := l.Mask[best*k : best*k+k]
	lo, hi := l.Lo[best], l.Hi[best]
	bit0 := d.BitOf(best, 0)
	for val := 0; val < d.Size(best); val++ {
		bw, bb := (bit0+val)/64, uint64(1)<<uint((bit0+val)%64)
		start := len(s.buf)
		for i := 0; i < len(cs); i += k {
			r := cs[i : i+k]
			if r[bw]&bb == 0 || check && !intersects(l, r, l.Full) {
				continue
			}
			s.buf = append(s.buf, r...)
			row := s.buf[len(s.buf)-k:]
			for w := lo; w <= hi; w++ {
				row[w] |= m[w]
			}
		}
		sub := s.buf[start:len(s.buf):len(s.buf)]
		ok := s.rec(d, l, sub, false)
		s.buf = s.buf[:start]
		if !ok {
			return false
		}
	}
	return true
}

// isFull reports whether row r holds every value of every variable.
//
//picola:hot
func isFull(l *cube.Layout, r []uint64) bool {
	for w, m := range l.Full {
		if r[w]&m != m {
			return false
		}
	}
	return true
}

// intersects reports whether every field of a∩b holds at least one value,
// without materializing the intersection.
//
//picola:hot
func intersects(l *cube.Layout, a, b []uint64) bool {
	for w, p := range l.Pair {
		x := a[w] & b[w]
		if (x|x>>1)&p != p {
			return false
		}
	}
	for _, v := range l.Rest {
		m := l.Mask[v*l.K:]
		var hit uint64
		for w := l.Lo[v]; w <= l.Hi[v]; w++ {
			hit |= a[w] & b[w] & m[w]
		}
		if hit == 0 {
			return false
		}
	}
	return true
}

// tautologyW runs the wide kernel over the cover's cubes.
//
//picola:hot
func (f *Cover) tautologyW() bool {
	s := tautWPool.Get().(*tautW)
	defer tautWPool.Put(s)
	s.buf = s.buf[:0]
	l := f.D.Layout()
	check := false
	for _, c := range f.Cubes {
		lo := len(s.buf)
		for w, m := range l.Full {
			s.buf = append(s.buf, c[w]&m)
		}
		check = check || !intersects(l, s.buf[lo:], l.Full)
	}
	return s.rec(f.D, l, s.buf, check)
}

// coversCubeW runs the wide kernel on the cover cofactored by c, fused so
// the intermediate cover is never materialized.
//
//picola:hot
func (f *Cover) coversCubeW(c cube.Cube) bool {
	s := tautWPool.Get().(*tautW)
	defer tautWPool.Put(s)
	s.buf = s.buf[:0]
	l := f.D.Layout()
	for _, q := range f.Cubes {
		if !intersects(l, q, c) {
			continue
		}
		for w, m := range l.Full {
			s.buf = append(s.buf, (q[w]|^c[w])&m)
		}
	}
	return s.rec(f.D, l, s.buf, false)
}
