// Package enc implements an ENC-style baseline for the partial
// face-constrained encoding problem (after Saldanha et al.): a local
// search whose objective is the exact product-term count of the encoded
// constraints, recomputed with the two-level minimizer inside the loop.
//
// The defining property the paper relies on — and that this baseline
// reproduces — is quality comparable to PICOLA bought with intensive
// logic minimization, making the method orders of magnitude slower and
// impractical on large instances (the paper notes ENC fails on scf). The
// search therefore carries an evaluation budget; exceeding it reports an
// incomplete run.
package enc

import (
	"math/rand"

	"picola/internal/baseline/nova"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/par"
)

// Options tune the search.
type Options struct {
	// Seed drives the deterministic pseudo-random visit order.
	Seed int64
	// Budget bounds the number of espresso constraint minimizations; 0
	// means the default (200000). When the budget runs out before the
	// search converges, Result.Completed is false. Budget counts
	// evaluation requests — a memo-cache hit consumes budget like a miss
	// — so the search trajectory is independent of Cache and Workers.
	Budget int
	// NV overrides the code length; 0 means the problem's minimum.
	NV int
	// Workers fans the initial constraint minimizations out over the par
	// pool; ≤ 1 evaluates sequentially. The swap search itself is
	// sequential. Results are identical at every worker count.
	Workers int
	// Cache memoizes the constraint minimizations (nil = none). ENC
	// revisits the same constraint functions constantly — every reverted
	// swap re-evaluates positions seen before — so the cache removes
	// espresso runs without altering any answer.
	Cache *eval.Cache
}

// Result is the outcome of an ENC run.
type Result struct {
	Encoding *face.Encoding
	// Cost is the exact total cube count of the returned encoding.
	Cost int
	// Completed is false when the evaluation budget ran out first.
	Completed bool
	// Evaluations counts espresso constraint minimizations performed.
	Evaluations int
}

// searcher caches per-constraint exact costs plus supercube geometry so a
// swap only re-minimizes the constraints it can affect.
type searcher struct {
	p       *face.Problem
	enc     *face.Encoding
	cost    []int
	agree   []uint64
	vals    []uint64
	budget  int
	evals   int
	workers int
	cache   *eval.Cache
}

// geom refreshes constraint i's supercube. A constraint without members
// keeps agree = vals = 0: both swapped codes then read as inside, so no
// swap of non-members marks it affected.
func (s *searcher) geom(i int) {
	s.agree[i], s.vals[i], _ = s.enc.Supercube(s.p.Constraints[i])
}

func (s *searcher) minimize(i int) error {
	k, err := s.cache.ConstraintCubesHeuristic(s.enc, s.p.Constraints[i])
	if err != nil {
		return err
	}
	s.evals++
	s.cost[i] = k
	return nil
}

// rescore refreshes the geometry and cost of the touched constraints
// after a swap, charging one budget unit each, and reports exhausted when
// the budget runs out before the swap has proved an improvement. The
// loop is sequential: with truth-table minimizations of about a
// microsecond, fanning one swap's few constraints out over the pool costs
// more than it saves (EXPERIMENTS.md).
func (s *searcher) rescore(touched []int, oldTotal int) (newTotal int, exhausted bool, err error) {
	for _, i := range touched {
		s.geom(i)
		if err := s.minimize(i); err != nil {
			return 0, false, err
		}
		newTotal += s.cost[i]
		if s.evals >= s.budget && newTotal >= oldTotal {
			return newTotal, true, nil
		}
	}
	return newTotal, false, nil
}

func (s *searcher) total() int {
	t := 0
	for _, k := range s.cost {
		t += k
	}
	return t
}

// affected reports whether swapping the codes now held by symbols a and b
// can change constraint i's implementation: always when a or b is a
// member; otherwise only when exactly one of the two codes lies inside
// the constraint's supercube (their inside/outside pattern changes).
func (s *searcher) affected(i, a, b int) bool {
	c := s.p.Constraints[i]
	if c.Has(a) || c.Has(b) {
		return true
	}
	ina := (s.enc.Codes[a]^s.vals[i])&s.agree[i] == 0
	inb := (s.enc.Codes[b]^s.vals[i])&s.agree[i] == 0
	return ina != inb
}

// Encode runs the ENC-style search.
func Encode(p *face.Problem, o Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	nv := o.NV
	if nv == 0 {
		nv = p.MinLength()
	}
	budget := o.Budget
	if budget == 0 {
		budget = 200000
	}
	// Constructive seeding (Saldanha's ENC builds its start from symbolic
	// structure): a constraint-satisfaction pass provides the initial
	// codes the exact-objective refinement then improves.
	e, err := nova.Encode(p, nova.Options{Variant: nova.IHybrid, Seed: o.Seed, NV: nv})
	if err != nil {
		return nil, err
	}
	s := &searcher{p: p, enc: e, budget: budget, workers: o.Workers, cache: o.Cache}
	r := len(p.Constraints)
	s.cost = make([]int, r)
	s.agree = make([]uint64, r)
	s.vals = make([]uint64, r)
	// The initial costs are independent: fan them out, charging the same
	// r budget units the sequential loop would.
	if _, err := par.Map(r, s.workers, func(i int) (int, error) {
		s.geom(i)
		k, err := s.cache.ConstraintCubesHeuristic(s.enc, s.p.Constraints[i])
		if err != nil {
			return 0, err
		}
		s.cost[i] = k
		return 0, nil
	}); err != nil {
		return nil, err
	}
	s.evals += r
	rng := rand.New(rand.NewSource(o.Seed + 7))
	completed := false
	var touched, oldCosts []int // per-swap scratch, reused across swaps
	// First-improvement hill climbing over code swaps, random sweep order,
	// until a full pass finds nothing better or the budget runs out.
	for pass := 0; pass < 100; pass++ {
		improved := false
		order := rng.Perm(n * n)
		for _, k := range order {
			a, b := k/n, k%n
			if a >= b {
				continue
			}
			if s.evals >= s.budget {
				goto out
			}
			// Identify affected constraints before the swap.
			touched = touched[:0]
			for i := 0; i < r; i++ {
				if s.affected(i, a, b) {
					touched = append(touched, i)
				}
			}
			if len(touched) == 0 {
				continue
			}
			oldCosts = oldCosts[:0]
			oldTotal := 0
			for _, i := range touched {
				oldCosts = append(oldCosts, s.cost[i])
				oldTotal += s.cost[i]
			}
			e.Codes[a], e.Codes[b] = e.Codes[b], e.Codes[a]
			newTotal, failed, err := s.rescore(touched, oldTotal)
			if err != nil {
				return nil, err
			}
			if failed || newTotal >= oldTotal {
				// Revert.
				e.Codes[a], e.Codes[b] = e.Codes[b], e.Codes[a]
				for j, i := range touched {
					s.geom(i)
					s.cost[i] = oldCosts[j]
				}
				if failed {
					goto out
				}
				continue
			}
			improved = true
		}
		if !improved {
			completed = true
			break
		}
	}
out:
	return &Result{
		Encoding:    e,
		Cost:        s.total(),
		Completed:   completed,
		Evaluations: s.evals,
	}, nil
}
