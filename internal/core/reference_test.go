package core

import (
	"picola/internal/ctxutil"
	"picola/internal/face"
	"picola/internal/obs"
)

// This file holds the scalar reference implementations the parity suites
// replay the production fast paths against. None has a production caller.

// columnCost is the generic column cost colScorer.cost must match bit
// for bit: the weighted sum of seed dichotomies the column would newly
// satisfy, recomputed from the member sets and unsatisfied lists.
func (e *encoder) columnCost(col face.Constraint) float64 {
	total := 0.0
	for ri, t := range e.rows {
		u := e.unsat[ri]
		if t.satisfied || len(u) == 0 {
			continue
		}
		in := t.members.IntersectCount(col)
		cnt := t.members.Count()
		var bit int
		switch in {
		case 0:
			bit = 0
		case cnt:
			bit = 1
		default:
			continue // members not uniform: no dichotomy satisfied
		}
		newly := 0
		for _, s := range u {
			sBit := 0
			if col.Has(s) {
				sBit = 1
			}
			if sBit != bit {
				newly++
			}
		}
		if newly > 0 {
			total += t.weight * float64(newly) / float64(len(u))
		}
	}
	return total
}

// solveRef is the full-scan column solve solve must reproduce move for
// move: every admissible candidate is re-scored with the exact scorer and
// the first of maximal float gain wins, with the partial-code classes
// counted in a map keyed by code prefix. It returns a fresh column.
func (e *encoder) solveRef(j int) (face.Constraint, error) {
	e.unsat = e.unsat[:0]
	for _, t := range e.rows {
		var u []int
		if !t.satisfied {
			for s := 0; s < e.n; s++ {
				if t.outsiders.Has(s) && t.mark[s] == 0 {
					u = append(u, s)
				}
			}
		}
		e.unsat = append(e.unsat, u)
	}
	col := face.NewConstraint(e.n).Complement() // all ones
	if e.startZero {
		col = face.NewConstraint(e.n)
	}
	classCap := 1
	if rem := e.nv - j - 1; rem < 63 {
		classCap = 1 << uint(rem)
	}
	// Partial-code classes from columns 0..j-1.
	prefix := make([]uint64, e.n)
	mask := uint64(1)<<uint(j) - 1
	for s := 0; s < e.n; s++ {
		prefix[s] = e.enc.Codes[s] & mask
	}
	count := map[uint64][2]int{} // per prefix: symbols on side 0 / side 1
	for s := 0; s < e.n; s++ {
		c := count[prefix[s]]
		if col.Has(s) {
			c[1]++
		} else {
			c[0]++
		}
		count[prefix[s]] = c
	}
	if !e.scan.fits(e) {
		e.scan.grow(e)
	}
	cs := e.resetColScorer(col)
	base := cs.cost()
	scans, applied := 1, 0
	maxMoves := 6*e.n + 8
	for move := 0; move < maxMoves; move++ {
		if err := ctxutil.Check(e.runCtx(), "core.column_scan"); err != nil {
			return face.Constraint{}, err
		}
		oversized := false
		for s := 0; s < e.n; s++ {
			c := count[prefix[s]]
			if c[0] > classCap || c[1] > classCap {
				oversized = true
				break
			}
		}
		bestS, bestGain := -1, 0.0
		for s := 0; s < e.n; s++ {
			from := 0
			if col.Has(s) {
				from = 1
			}
			to := 1 - from
			c := count[prefix[s]]
			if oversized && c[from] <= classCap {
				continue // forced moves must relieve an oversized side
			}
			if c[to]+1 > classCap {
				continue // would overfill the target side
			}
			cs.flip(s, from == 0)
			cost := cs.cost()
			scans++
			cs.flip(s, from == 1)
			gain := cost - base
			if bestS < 0 || gain > bestGain {
				bestS, bestGain = s, gain
			}
		}
		if bestS < 0 {
			break // no admissible move (only possible when valid)
		}
		if !oversized && bestGain <= 0 {
			break // local optimum among valid columns
		}
		from := 0
		if col.Has(bestS) {
			from = 1
		}
		flip(col, bestS)
		cs.flip(bestS, from == 0)
		c := count[prefix[bestS]]
		c[from]--
		c[1-from]++
		count[prefix[bestS]] = c
		base += bestGain
		applied++
	}
	mColumnScans.Add(int64(scans))
	e.lastMoves, e.lastCost = applied, base
	return col, nil
}

// classifyGeneric is the scalar reference implementation of classify —
// the pre-memo pairwise code, byte-for-byte semantics — that the
// randomized parity tests replay both paths against.
func (e *encoder) classifyGeneric(j int) []int {
	var out []int
	remaining := e.nv - j
	for i, t := range e.rows {
		if t.satisfied || t.infeasible {
			continue
		}
		intr := t.unsatisfiedCountRef()
		if intr == 0 {
			continue
		}
		bad := false
		switch {
		case remaining == 0:
			bad = true
		case len(t.agreeCols) >= e.nv-minDim(t.members.Count()):
			bad = true
		default:
			for _, s := range e.rows {
				if !s.satisfied || s == t {
					continue
				}
				if !e.compatible(s, t) {
					bad = true
					break
				}
			}
		}
		if bad {
			t.infeasible = true
			out = append(out, i)
			mInfeasible.Inc()
			if e.tr != nil {
				obs.Emit(e.tr, obs.Event{Kind: obs.KindEvent, Stage: "classify", Name: "infeasible",
					Attrs: map[string]float64{
						"variant":   float64(e.variant),
						"row":       float64(i),
						"col":       float64(j),
						"intruders": float64(intr),
						"depth":     float64(t.depth),
					}})
			}
		}
	}
	return out
}

// unsatisfiedCountRef is the scalar mark-scan reference of
// unsatisfiedCount, kept for the classify parity suite.
func (t *tracked) unsatisfiedCountRef() int {
	n := 0
	for s := 0; s < t.outsiders.N(); s++ {
		if t.outsiders.Has(s) && t.mark[s] == 0 {
			n++
		}
	}
	return n
}

// compatible implements the nv-compatibility check of §3.3.1 between a
// satisfied constraint a and a candidate b: does any admissible triple of
// cube dimensions (dimA, dimB, dimAB) satisfy the Boolean-algebra
// conditions and dim(super(A,B)) = dimA + dimB − dimAB ≤ nv?
func (e *encoder) compatible(a, b *tracked) bool {
	nv := e.nv
	cA, cB := a.members.Count(), b.members.Count()
	son := a.members.IntersectCount(b.members)
	dALo, dAHi := minDim(cA), nv-len(a.agreeCols)
	dBLo, dBHi := minDim(cB), nv-len(b.agreeCols)
	if dALo > dAHi || dBLo > dBHi {
		return false
	}
	if son == 0 {
		// Disjoint constraints need disjoint cubes: total capacity and
		// total slack must fit (a necessary condition; paper §3.3.1.b).
		total := 1 << uint(nv)
		if 1<<uint(dALo)+1<<uint(dBLo) > total {
			return false
		}
		slack := total - e.n
		if (1<<uint(dALo)-cA)+(1<<uint(dBLo)-cB) > slack {
			return false
		}
		return true
	}
	dSLo := minDim(son)
	union := cA + cB - son
	for dA := dALo; dA <= dAHi; dA++ {
		if 1<<uint(dA) < cA {
			continue
		}
		for dB := dBLo; dB <= dBHi; dB++ {
			if 1<<uint(dB) < cB {
				continue
			}
			for dS := dSLo; dS <= dA && dS <= dB; dS++ {
				// Conditions I: a proper son needs a strictly smaller cube;
				// an equal son the same cube.
				if son < cA && dS >= dA {
					continue
				}
				if son == cA && dS != dA {
					continue
				}
				if son < cB && dS >= dB {
					continue
				}
				if son == cB && dS != dB {
					continue
				}
				// Conditions II: the son cube's slack fits in each father's.
				if (1<<uint(dS))-son > (1<<uint(dA))-cA {
					continue
				}
				if (1<<uint(dS))-son > (1<<uint(dB))-cB {
					continue
				}
				dU := dA + dB - dS
				if dU > nv {
					continue
				}
				if 1<<uint(dU) < union {
					continue
				}
				return true
			}
		}
	}
	return false
}
