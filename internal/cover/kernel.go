package cover

import (
	"sync"

	"picola/internal/cube"
)

// Tautology kernel. Tautology and CoversCube run the unate recursion over
// plain uint64 rows carved from a pooled bump arena instead of
// materializing a fresh *Cover and fresh cubes per cofactor. Each cube is
// a row of Layout.K words, for the encoder's one-word code spaces and the
// symbolic covers of Table I (up to 352 bits) alike. The kernel mirrors
// the generic recursion (reference_test.go, the oracle it is checked
// against) decision for decision — same quick accepts/rejects, same
// splitting variable, same visit order — so cover.tautology_nodes counts
// identically.

// taut is the pooled scratch of one kernel run: a bump arena of
// cofactored rows, Layout.K words each. Child covers are carved as
// sub-slices; reallocation during deeper recursion is safe because carved
// slices are never written after creation.
type taut struct {
	buf []uint64
}

var tautPool = sync.Pool{New: func() any { return new(taut) }}

// rec is the unate recursion over rows of l.K words. It must keep the
// exact decision structure of the generic recursion (tautologyRef). A
// cofactor by a value cube keeps the rows holding that value and ORs the
// split field to full. That is the whole intersection test
// only when every field of a row is non-empty, which holds for every row
// below the root: a row enters a cofactor only when it intersects the
// cofactoring cube, and the result contains that intersection. At the
// root of a direct Tautology call a cube may have an empty field; the
// oracle keeps such cubes in the root's decisions and drops them at its
// first split, so the caller sets check when one is present and the split
// then tests every field.
//
//picola:hot
func (s *taut) rec(d *cube.Domain, l *cube.Layout, cs []uint64, check bool) bool {
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
			if r[bw]&bb == 0 || check && !l.Meets(r, l.Full) {
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

// Tautology reports whether the cover covers the entire space.
//
//picola:hot
func (f *Cover) Tautology() bool {
	s := tautPool.Get().(*taut)
	defer tautPool.Put(s)
	s.buf = s.buf[:0]
	l := f.D.Layout()
	check := false
	for _, c := range f.Cubes {
		lo := len(s.buf)
		for w, m := range l.Full {
			s.buf = append(s.buf, c[w]&m)
		}
		check = check || !l.Meets(s.buf[lo:], l.Full)
	}
	return s.rec(f.D, l, s.buf, check)
}

// CoversCube reports whether the cover covers every minterm of cube c: the
// kernel on the cover cofactored by c, fused so the intermediate cover is
// never materialized.
//
//picola:hot
func (f *Cover) CoversCube(c cube.Cube) bool {
	s := tautPool.Get().(*taut)
	defer tautPool.Put(s)
	s.buf = s.buf[:0]
	l := f.D.Layout()
	for _, q := range f.Cubes {
		if !l.Meets(q, c) {
			continue
		}
		for w, m := range l.Full {
			s.buf = append(s.buf, (q[w]|^c[w])&m)
		}
	}
	return s.rec(f.D, l, s.buf, false)
}
