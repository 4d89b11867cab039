// Package nova implements a NOVA-style baseline encoder for the partial
// face-constrained encoding problem: a greedy-seeded simulated-annealing
// search over minimum-length code assignments whose objective is the
// weighted number of *satisfied* face constraints.
//
// This reproduces the modeling choice of conventional tools that the paper
// argues against: constraints that cannot be satisfied contribute nothing
// to the objective, so the search is indifferent to how expensively a
// violated constraint will be implemented. The IOHybrid variant adds
// NOVA's "-e ioh" flavor: a secondary objective rewarding code adjacency
// of designated symbol pairs (derived from next-state/output structure by
// the state-assignment flow).
package nova

import (
	"math"
	"math/bits"
	"math/rand"

	"picola/internal/face"
)

// Variant selects the NOVA emulation mode.
type Variant int

// Variants: IHybrid optimizes input (face) constraints only; IOHybrid adds
// the output-pair adjacency objective.
const (
	IHybrid Variant = iota
	IOHybrid
)

// Pair is an output-constraint surrogate: two symbols whose codes should
// be adjacent (Hamming distance 1), with a weight.
type Pair struct {
	A, B   int
	Weight float64
}

// Options tune the annealer.
type Options struct {
	Variant Variant
	// Seed drives the deterministic pseudo-random schedule.
	Seed int64
	// Sweeps scales the annealing length; 0 means the default.
	Sweeps int
	// OutputPairs feed the IOHybrid objective; ignored by IHybrid.
	OutputPairs []Pair
	// NV overrides the code length; 0 means the problem's minimum.
	NV int
}

// state caches per-constraint satisfaction bookkeeping so a code swap is
// evaluated in O(#constraints) with mostly O(1) work per constraint.
type state struct {
	p     *face.Problem
	enc   *face.Encoding
	pairs []Pair
	useIO bool
	mask  uint64

	agree  []uint64 // supercube agree mask per constraint
	vals   []uint64 // supercube values on agreeing columns
	intrs  []int    // intruder count per constraint
	weight []float64

	// tt is set when the codes fit one truth table (nv ≤ 6) and are
	// distinct under the mask; used then holds the assigned codes.
	tt   bool
	used uint64
}

func newState(p *face.Problem, e *face.Encoding, o Options) *state {
	s := &state{p: p, enc: e, useIO: o.Variant == IOHybrid}
	// The output-pair objective is secondary in NOVA's ioh mode: normalize
	// its total mass to a fraction of the face-constraint mass so it
	// breaks ties rather than overriding input constraints.
	if s.useIO && len(o.OutputPairs) > 0 {
		faceMass := 0.0
		for i := range p.Constraints {
			faceMass += float64(p.Weight(i))
		}
		pairMass := 0.0
		for _, pr := range o.OutputPairs {
			pairMass += pr.Weight
		}
		scale := 1.0
		if pairMass > 0 && faceMass > 0 {
			scale = 0.25 * faceMass / pairMass
		}
		s.pairs = make([]Pair, len(o.OutputPairs))
		for i, pr := range o.OutputPairs {
			pr.Weight *= scale
			s.pairs[i] = pr
		}
	}
	s.mask = uint64(1)<<uint(e.NV) - 1
	if e.NV == 64 {
		s.mask = ^uint64(0)
	}
	if e.NV <= 6 {
		for _, code := range e.Codes {
			s.used |= 1 << (code & s.mask)
		}
		s.tt = bits.OnesCount64(s.used) == e.N()
	}
	r := len(p.Constraints)
	s.agree = make([]uint64, r)
	s.vals = make([]uint64, r)
	s.intrs = make([]int, r)
	s.weight = make([]float64, r)
	for i := range p.Constraints {
		s.weight[i] = float64(p.Weight(i))
		s.recompute(i)
	}
	return s
}

// recompute rebuilds constraint i's supercube and intruder count. A
// constraint without members spans no cube: it keeps agree = vals = 0
// and no intruders, and since every code then reads as inside, no move
// changes its count. On a truth-table state the used codes are one mask
// and every member lies in the supercube, so the intruders are the used
// minterms of the cube minus the members; otherwise the non-members are
// scanned.
func (s *state) recompute(i int) {
	c := s.p.Constraints[i]
	agree, vals, ok := s.enc.Supercube(c)
	intr := 0
	switch {
	case !ok:
	case s.tt:
		cube := uint64(1) << vals
		for free := s.mask &^ agree; free != 0; free &= free - 1 {
			cube |= cube << (uint(1) << uint(bits.TrailingZeros64(free)))
		}
		intr = bits.OnesCount64(cube&s.used) - c.Count()
	default:
		for sym := 0; sym < s.enc.N(); sym++ {
			if !c.Has(sym) && (s.enc.Codes[sym]^vals)&agree == 0 {
				intr++
			}
		}
	}
	s.agree[i], s.vals[i], s.intrs[i] = agree, vals, intr
}

func (s *state) inside(i int, code uint64) bool {
	return (code^s.vals[i])&s.agree[i] == 0
}

// objective returns the current total objective.
func (s *state) objective() float64 {
	total := 0.0
	for i := range s.p.Constraints {
		if s.intrs[i] == 0 {
			total += s.weight[i]
		}
	}
	if s.useIO {
		total += s.pairBonus()
	}
	return total
}

func (s *state) pairBonus() float64 {
	total := 0.0
	for _, pr := range s.pairs {
		d := hamming(s.enc.Codes[pr.A]&s.mask, s.enc.Codes[pr.B]&s.mask)
		if d == 1 {
			total += pr.Weight
		}
	}
	return total
}

func hamming(a, b uint64) int { return bits.OnesCount64(a ^ b) }

// applySwap exchanges the codes of symbols a and b (b may be -1 with a
// spare code, meaning "move a to code spare") and incrementally updates
// the bookkeeping. It returns nothing; callers snapshot/restore by
// re-swapping.
func (s *state) applySwap(a, b int) {
	s.enc.Codes[a], s.enc.Codes[b] = s.enc.Codes[b], s.enc.Codes[a]
	for i, c := range s.p.Constraints {
		if c.Has(a) || c.Has(b) {
			s.recompute(i)
			continue
		}
		// Membership unchanged and supercube unchanged: only the two
		// moved codes' inside-status can differ — and since the two codes
		// merely exchanged owners (both remain assigned), the count of
		// assigned non-member codes inside the cube is unchanged as well.
		// Nothing to do.
	}
}

// applyMove moves symbol a to the unused code spare, updating bookkeeping.
// It returns the symbol's previous code (the new spare).
func (s *state) applyMove(a int, spare uint64) uint64 {
	old := s.enc.Codes[a]
	s.enc.Codes[a] = spare
	if s.tt {
		s.used ^= 1<<(old&s.mask) | 1<<(spare&s.mask)
	}
	for i, c := range s.p.Constraints {
		if c.Has(a) {
			s.recompute(i)
			continue
		}
		wasIn := (old^s.vals[i])&s.agree[i] == 0
		isIn := s.inside(i, spare)
		if wasIn != isIn {
			if isIn {
				s.intrs[i]++
			} else {
				s.intrs[i]--
			}
		}
	}
	return old
}

// Encode runs the baseline encoder and returns a minimum-length encoding.
func Encode(p *face.Problem, o Options) (*face.Encoding, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	nv := o.NV
	if nv == 0 {
		nv = p.MinLength()
	}
	e := face.NewEncoding(n, nv)
	for sym := 0; sym < n; sym++ {
		e.Codes[sym] = uint64(sym)
	}
	if n == 0 {
		return e, nil
	}
	s := newState(p, e, o)
	r := rand.New(rand.NewSource(o.Seed + 1))

	// Unused codes (when n < 2^nv) enable move moves.
	var spares []uint64
	used := make(map[uint64]bool, n)
	for _, c := range e.Codes {
		used[c] = true
	}
	total := uint64(1) << uint(nv)
	for c := uint64(0); c < total; c++ {
		if !used[c] {
			spares = append(spares, c)
		}
	}

	sweeps := 40
	if o.Sweeps > 0 {
		sweeps = o.Sweeps
	}
	cur := s.objective()
	best := cur
	bestCodes := append([]uint64(nil), e.Codes...)
	// Initial temperature scaled to typical constraint weight.
	t := 0.0
	for i := range p.Constraints {
		t += s.weight[i]
	}
	if len(p.Constraints) > 0 {
		t = 2 * t / float64(len(p.Constraints))
	} else {
		t = 1
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		moves := 4 * n
		for mv := 0; mv < moves; mv++ {
			useMove := len(spares) > 0 && r.Intn(4) == 0
			if useMove {
				a := r.Intn(n)
				si := r.Intn(len(spares))
				old := s.applyMove(a, spares[si])
				next := s.objective()
				if next >= cur || r.Float64() < math.Exp((next-cur)/t) {
					cur = next
					spares[si] = old
				} else {
					s.applyMove(a, old)
					// spare stays as it was
				}
			} else {
				a := r.Intn(n)
				b := r.Intn(n)
				if a == b {
					continue
				}
				s.applySwap(a, b)
				next := s.objective()
				if next >= cur || r.Float64() < math.Exp((next-cur)/t) {
					cur = next
				} else {
					s.applySwap(a, b)
				}
			}
			if cur > best {
				best = cur
				copy(bestCodes, e.Codes)
			}
		}
		t *= 0.88
		if t < 1e-3 {
			t = 1e-3
		}
	}
	copy(e.Codes, bestCodes)
	return e, nil
}
