package eval

import (
	"context"
	"sync"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/espresso"
	"picola/internal/exact"
	"picola/internal/face"
)

// scorer is the pooled scratch of one constraint scoring: a slab of cube
// words backing the n code cubes, reusable ON/OFF cover headers, the
// count-only exact minimizer, and the truth-table espresso with its ON
// code and don't-care word lists. On a warmed instance, scoring allocates
// nothing — the TestAllocs gates enforce that.
type scorer struct {
	words    []uint64
	onCubes  []cube.Cube
	offCubes []cube.Cube
	on, off  cover.Cover
	fn       espresso.Function
	counter  exact.Counter
	heur     espresso.Counter
	onCodes  []uint64
	dcWords  []uint64
}

var scorerPool = sync.Pool{New: func() any { return new(scorer) }}

// build populates the pooled code-cube slab and the ON/OFF cover headers
// for one constraint scoring — the same partition ConstraintFunction
// builds (member codes ON, non-member codes OFF, unused codes implicit
// DC) — and returns the interned domain.
//
//picola:hot
func (s *scorer) build(e *face.Encoding, c face.Constraint) *cube.Domain {
	//lint:ignore hotalloc interned domain: allocates only on the first use of a given nv
	d := cube.BinaryInterned(e.NV)
	n := e.N()
	w := d.Words()
	if cap(s.words) < n*w {
		s.words = make([]uint64, n*w)
	}
	s.words = s.words[:n*w]
	s.onCubes = s.onCubes[:0]
	s.offCubes = s.offCubes[:0]
	for sym := 0; sym < n; sym++ {
		cw := cube.Cube(s.words[sym*w : (sym+1)*w : (sym+1)*w])
		for i := range cw {
			cw[i] = 0
		}
		for col := 0; col < e.NV; col++ {
			d.Set(cw, col, e.Bit(sym, col))
		}
		if c.Has(sym) {
			s.onCubes = append(s.onCubes, cw)
		} else {
			s.offCubes = append(s.offCubes, cw)
		}
	}
	s.on = cover.Cover{D: d, Cubes: s.onCubes}
	s.off = cover.Cover{D: d, Cubes: s.offCubes}
	return d
}

// exactCount scores one constraint with the pooled exact path, the
// count-only mirror of exact.Minimize. Code spaces of up to
// exact.TTMaxInputs bits go to the truth-table counter as ON and OFF
// masks read straight off the codes; wider ones take the slab build
// above.
//
//picola:hot
func (s *scorer) exactCount(ctx context.Context, e *face.Encoding, c face.Constraint) (int, error) {
	if e.NV <= exact.TTMaxInputs {
		mask := uint64(1)<<uint(e.NV) - 1
		var on, off uint64
		for sym, code := range e.Codes {
			if c.Has(sym) {
				on |= 1 << (code & mask)
			} else {
				off |= 1 << (code & mask)
			}
		}
		return s.counter.CountTT(ctx, e.NV, on, off)
	}
	d := s.build(e, c)
	s.fn = espresso.Function{D: d, On: &s.on, Off: &s.off}
	return s.counter.CountContext(ctx, &s.fn, e.NV)
}

// heurCount scores one constraint with the pooled espresso path. dc is
// the don't-care cover of the encoding's used-code set (the complement of
// the code cubes, memoized or freshly built). Code spaces of up to
// espresso.TTMaxInputs bits go to the truth-table espresso: the member
// codes in symbol order (the ON cover's order) and the non-member codes
// as an OFF mask, read straight off the encoding, plus dc's cube words in
// dc's order. Wider ones take the slab build; espresso clones the ON cover and never mutates or
// retains Off/DC cubes, so the pooled slab and a shared DC cover are both
// safe there.
func (s *scorer) heurCount(ctx context.Context, e *face.Encoding, c face.Constraint, dc *cover.Cover) (int, error) {
	if e.NV <= espresso.TTMaxInputs {
		mask := uint64(1)<<uint(e.NV) - 1
		var off uint64
		s.onCodes = s.onCodes[:0]
		for sym, code := range e.Codes {
			if c.Has(sym) {
				s.onCodes = append(s.onCodes, code&mask)
			} else {
				off |= 1 << (code & mask)
			}
		}
		s.dcWords = s.dcWords[:0]
		for _, cu := range dc.Cubes {
			s.dcWords = append(s.dcWords, cu[0])
		}
		return s.heur.CountTT(ctx, e.NV, s.onCodes, off, s.dcWords)
	}
	d := s.build(e, c)
	s.fn = espresso.Function{D: d, On: &s.on, Off: &s.off, DC: dc}
	min, err := espresso.MinimizeContext(ctx, &s.fn)
	if err != nil {
		return 0, err
	}
	return min.Len(), nil
}
