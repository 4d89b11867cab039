package nova

import (
	"math/rand"
	"testing"

	"picola/internal/face"
)

// randomProblem builds a random constraint set over n symbols.
func randomProblem(r *rand.Rand, n int) *face.Problem {
	p := &face.Problem{Names: make([]string, n)}
	for k := 0; k < 2+r.Intn(6); k++ {
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				c.Add(s)
			}
		}
		p.AddConstraint(c)
	}
	return p
}

// TestIncrementalStateMatchesRecompute drives the annealer's cached state
// through random swap and move operations and checks the intruder counts
// against a from-scratch recomputation after every step.
func TestIncrementalStateMatchesRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(12)
		nv := 0
		for (1 << nv) < n {
			nv++
		}
		p := randomProblem(r, n)
		if len(p.Constraints) == 0 {
			continue
		}
		e := face.NewEncoding(n, nv)
		perm := r.Perm(1 << uint(nv))
		for s := 0; s < n; s++ {
			e.Codes[s] = uint64(perm[s])
		}
		var spares []uint64
		for code := n; code < 1<<uint(nv); code++ {
			spares = append(spares, uint64(perm[code]))
		}
		st := newState(p, e, Options{})
		for step := 0; step < 60; step++ {
			if len(spares) > 0 && r.Intn(3) == 0 {
				a := r.Intn(n)
				si := r.Intn(len(spares))
				old := st.applyMove(a, spares[si])
				spares[si] = old
			} else {
				a, b := r.Intn(n), r.Intn(n)
				if a == b {
					continue
				}
				st.applySwap(a, b)
			}
			// From-scratch check.
			want := newState(p, e, Options{})
			for i := range p.Constraints {
				if st.intrs[i] != want.intrs[i] {
					t.Fatalf("step %d: constraint %d intruders=%d, want %d",
						step, i, st.intrs[i], want.intrs[i])
				}
				if st.agree[i] != want.agree[i] || st.vals[i] != want.vals[i] {
					t.Fatalf("step %d: constraint %d supercube cache diverged", step, i)
				}
			}
			if st.objective() != want.objective() {
				t.Fatalf("step %d: objective diverged", step)
			}
		}
	}
}

// recomputeRef is the scan the production recompute replaced, kept as its
// oracle: the member list's supercube, then every non-member code tested
// against it. A constraint without members keeps agree = vals = 0 and no
// intruders.
func (s *state) recomputeRef(i int) (agree, vals uint64, intr int) {
	c := s.p.Constraints[i]
	members := c.Members()
	if len(members) == 0 {
		return 0, 0, 0
	}
	agree = s.mask
	vals = s.enc.Codes[members[0]] & s.mask
	for _, m := range members[1:] {
		agree &^= (vals ^ s.enc.Codes[m]) & s.mask
	}
	vals &= agree
	for sym := 0; sym < s.enc.N(); sym++ {
		if !c.Has(sym) && (s.enc.Codes[sym]^vals)&agree == 0 {
			intr++
		}
	}
	return agree, vals, intr
}

// TestRecomputeMatchesScan drives seeded random swap and move sequences
// over truth-table states (nv ≤ 6, distinct codes), wide states (nv = 7)
// and colliding states (an NV override too short for the symbols), with
// empty constraints mixed in, and holds every constraint's agree, vals
// and intruder count to the scan oracle after each step.
func TestRecomputeMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 90; trial++ {
		var n, nv int
		switch trial % 3 {
		case 0:
			n = 2 + r.Intn(60)
			for (1 << nv) < n {
				nv++
			}
			nv += r.Intn(7 - nv)
		case 1:
			n, nv = 20+r.Intn(100), 7
		case 2:
			nv = 1 + r.Intn(4)
			n = (1 << nv) + 1 + r.Intn(8)
		}
		p := randomProblem(r, n)
		p.AddConstraint(face.NewConstraint(n))
		e := face.NewEncoding(n, nv)
		var spares []uint64
		if trial%3 == 2 {
			for s := 0; s < n; s++ {
				e.Codes[s] = uint64(s)
			}
		} else {
			perm := r.Perm(1 << uint(nv))
			for s := 0; s < n; s++ {
				e.Codes[s] = uint64(perm[s])
			}
			for _, code := range perm[n:] {
				spares = append(spares, uint64(code))
			}
		}
		st := newState(p, e, Options{})
		if want := trial%3 == 0; st.tt != want {
			t.Fatalf("trial %d (n %d, nv %d): truth-table state %v, want %v", trial, n, nv, st.tt, want)
		}
		for step := 0; step < 80; step++ {
			if len(spares) > 0 && r.Intn(3) == 0 {
				si := r.Intn(len(spares))
				spares[si] = st.applyMove(r.Intn(n), spares[si])
			} else if a, b := r.Intn(n), r.Intn(n); a != b {
				st.applySwap(a, b)
			}
			for i := range p.Constraints {
				agree, vals, intr := st.recomputeRef(i)
				if st.agree[i] != agree || st.vals[i] != vals || st.intrs[i] != intr {
					t.Fatalf("trial %d step %d constraint %d: (%b, %b, %d), scan (%b, %b, %d)",
						trial, step, i, st.agree[i], st.vals[i], st.intrs[i], agree, vals, intr)
				}
			}
		}
	}
}
