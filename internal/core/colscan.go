package core

import (
	"math"
	"math/bits"

	"picola/internal/ctxutil"
	"picola/internal/face"
	"picola/internal/obs"
)

// Column-scan metrics. core.dichotomy_scans counts full cost re-sums
// only; the screen's O(1) estimates are not scans.
var (
	mScanWindowCut  = obs.Default.Counter("core.column_scan.window_cut")
	mScanSigSkipped = obs.Default.Counter("core.column_scan.sig_skipped")
)

// maxScanSigs bounds the scored signatures a window candidate is compared
// against. The skip is an optimization only — an unmatched candidate is
// simply re-scored — so the bound keeps a window of many distinct
// signatures from turning the comparisons quadratic.
const maxScanSigs = 4

// solve generates code column j (the paper's Solve): all bits start at 1
// and bits are flipped greedily — forced while some partial-code class
// exceeds its capacity 2^(nv−j−1) on one side, then by steepest ascent on
// the weighted sum of satisfied seed dichotomies (both flip directions,
// strict improvement) until the column is a local optimum among valid
// columns.
//
// Each move picks exactly the flip the full scan of every admissible
// candidate would pick — the first symbol, in index order, of maximal
// float gain cost − base — while re-summing the cost for only a few of
// them (DESIGN.md §10):
//
//  1. Screen: each admissible candidate's real-valued gain is estimated
//     in O(1) from the maintained per-symbol aggregate z plus the deltas
//     of its few member rows.
//  2. Window: only a candidate whose estimate lies within the proven
//     float-error bound of the best estimate can carry the maximal float
//     gain (colScan.window).
//  3. Exact pick: the window is walked in index order and re-scored with
//     the exact scorer under the strict > rule, skipping a candidate
//     whose term-changing signature equals an already scored one's — its
//     cost is bit-identical and its index later, so it cannot win
//     (colScan.scoredSig).
//
// The returned column is encoder scratch, valid until the next solve.
func (e *encoder) solve(j int) (face.Constraint, error) {
	sc := &e.scan
	if !sc.fits(e) {
		sc.grow(e)
	}
	e.collectUnsat()
	col := sc.col
	for s := 0; s < e.n; s++ {
		if e.startZero {
			col.Remove(s)
		} else {
			col.Add(s)
		}
	}
	classCap := 1
	if rem := e.nv - j - 1; rem < 63 {
		classCap = 1 << uint(rem)
	}
	sc.classify(e, j, col, classCap)
	cs := e.resetColScorer(col)
	base := cs.cost()
	if colCostOracle != nil {
		colCostOracle(e, col, base)
	}
	sc.resetScreen(e)
	scans, applied, cut, skipped := 1, 0, 0, 0
	maxMoves := 6*e.n + 8
	for move := 0; move < maxMoves; move++ {
		if err := ctxutil.Check(e.runCtx(), "core.column_scan"); err != nil {
			return face.Constraint{}, err
		}
		oversized := sc.over > 0
		// Screen every admissible candidate.
		sc.cand = sc.cand[:0]
		bestEst := math.Inf(-1)
		for s := 0; s < e.n; s++ {
			from, d := 0, 1
			if col.Has(s) {
				from, d = 1, -1
			}
			c := 2 * int(sc.classOf[s])
			if oversized && int(sc.classCnt[c+from]) <= classCap {
				continue // forced moves must relieve an oversized side
			}
			if int(sc.classCnt[c+1-from])+1 > classCap {
				continue // would overfill the target side
			}
			est := sc.estimate(s, d)
			if est > bestEst {
				bestEst = est
			}
			sc.cand = append(sc.cand, scanCand{s: s, est: est})
		}
		if len(sc.cand) == 0 {
			break // no admissible move (only possible when valid)
		}
		// Exact pick over the window, in index order.
		floor := bestEst - sc.window(base)
		bestS, bestGain := -1, 0.0
		sc.sigs = sc.sigs[:0]
		for _, c := range sc.cand {
			if c.est < floor {
				cut++
				continue
			}
			s := c.s
			set := col.Has(s)
			d := 1
			if set {
				d = -1
			}
			inert := sc.inert(s, d)
			if inert && sc.scoredSig(col, s, set) {
				skipped++
				continue
			}
			cs.flip(s, !set)
			cost := cs.cost()
			scans++
			if colCostOracle != nil {
				flip(col, s)
				colCostOracle(e, col, cost)
				flip(col, s)
			}
			cs.flip(s, set)
			gain := cost - base
			if bestS < 0 || gain > bestGain {
				bestS, bestGain = s, gain
			}
			if inert && len(sc.sigs) < maxScanSigs {
				sc.sigs = append(sc.sigs, s)
			}
		}
		if !oversized && bestGain <= 0 {
			break // local optimum among valid columns
		}
		from, d := 0, 1
		if col.Has(bestS) {
			from, d = 1, -1
		}
		sc.commit(e, bestS, d)
		flip(col, bestS)
		cs.flip(bestS, from == 0)
		sc.move(bestS, from, classCap)
		base += bestGain
		applied++
	}
	mColumnScans.Add(int64(scans))
	mScanWindowCut.Add(int64(cut))
	mScanSigSkipped.Add(int64(skipped))
	e.lastMoves, e.lastCost = applied, base
	return col, nil
}

func flip(col face.Constraint, s int) {
	if col.Has(s) {
		col.Remove(s)
	} else {
		col.Add(s)
	}
}

// collectUnsat lists each row's unsatisfied outsiders for the column
// about to be built (empty for satisfied rows). The marks only change in
// apply, so the lists are invariant while one column is built. They are
// subslices of one reused backing buffer.
func (e *encoder) collectUnsat() {
	sc := &e.scan
	buf := sc.unsatBuf[:0]
	for _, t := range e.rows {
		if !t.satisfied {
			buf = t.unsat.AppendMembers(buf)
		}
	}
	sc.unsatBuf = buf
	e.unsat = e.unsat[:0]
	off := 0
	for _, t := range e.rows {
		k := 0
		if !t.satisfied {
			k = t.unsat.Count()
		}
		e.unsat = append(e.unsat, buf[off:off+k:off+k])
		off += k
	}
}

// colCostOracle, when non-nil (tests only), receives every column cost
// solve re-sums next to the column it was computed for, so the parity
// test can replay the generic columnCost and demand bit-identical floats.
var colCostOracle func(e *encoder, col face.Constraint, got float64)

// colScorer re-sums the column cost incrementally: the weighted sum of
// seed dichotomies the column would newly satisfy, where a dichotomy
// weighs its constraint's weight (multiplicity × kind factor) divided by
// the number of its dichotomies still unsatisfied — favoring constraints
// close to fulfillment and, through the guide rows, the economical
// implementation of infeasible ones. Per active row it tracks
// in = |members ∩ col| and u1 = |{s ∈ u : col(s) = 1}|; a bit flip
// touches only the rows of that symbol, and cost re-sums all active rows
// in row order with exactly the terms of the generic columnCost —
// float-identical, O(1) per row.
type colScorer struct {
	e      *encoder
	in, u1 []int
	cnt    []int
	// active lists, ascending, the rows with a nonempty unsatisfied list
	// that are not yet satisfied: the only rows the cost can count. The
	// set is fixed for the duration of one solve.
	active []int
	// The active rows having s as a member are
	// memberIdx[memberStart[s]:memberStart[s+1]].
	memberStart, memberIdx []int
	// unsatBits holds, per symbol, a words-wide bitset of the active rows
	// whose unsatisfied list contains it (row ri at bit ri).
	words     int
	unsatBits []uint64
	memBuf    []int // member-list scratch
}

// resetColScorer rebuilds the scorer's tracking state for the column
// about to be built from the current unsatisfied lists.
func (e *encoder) resetColScorer(col face.Constraint) *colScorer {
	cs := &e.scan.cs
	cs.e = e
	r := len(e.rows)
	clear(cs.in[:r])
	clear(cs.u1[:r])
	clear(cs.cnt[:r])
	clear(cs.unsatBits[:e.n*cs.words])
	clear(cs.memberStart)
	cs.active = cs.active[:0]
	for ri, t := range e.rows {
		u := e.unsat[ri]
		if t.satisfied || len(u) == 0 {
			continue
		}
		cs.active = append(cs.active, ri)
		cs.cnt[ri] = t.cnt
		cs.in[ri] = t.members.IntersectCount(col)
		bit, w := uint64(1)<<uint(ri%64), ri/64
		for _, s := range u {
			cs.unsatBits[s*cs.words+w] |= bit
			if col.Has(s) {
				cs.u1[ri]++
			}
		}
		cs.memBuf = t.members.AppendMembers(cs.memBuf[:0])
		for _, s := range cs.memBuf {
			cs.memberStart[s+1]++
		}
	}
	for s := 0; s < e.n; s++ {
		cs.memberStart[s+1] += cs.memberStart[s]
	}
	total := cs.memberStart[e.n]
	if cap(cs.memberIdx) < total {
		cs.memberIdx = make([]int, total)
	}
	cs.memberIdx = cs.memberIdx[:total]
	// Fill each symbol's slot range front to back, using memberStart[s]
	// as the cursor, then shift the starts back into place.
	for _, ri := range cs.active {
		cs.memBuf = e.rows[ri].members.AppendMembers(cs.memBuf[:0])
		for _, s := range cs.memBuf {
			cs.memberIdx[cs.memberStart[s]] = ri
			cs.memberStart[s]++
		}
	}
	for s := e.n; s > 0; s-- {
		cs.memberStart[s] = cs.memberStart[s-1]
	}
	cs.memberStart[0] = 0
	return cs
}

// members returns the active rows having s as a member.
func (cs *colScorer) members(s int) []int {
	return cs.memberIdx[cs.memberStart[s]:cs.memberStart[s+1]]
}

// flip records that symbol s's column bit is now set (or now clear).
func (cs *colScorer) flip(s int, nowSet bool) {
	d := 1
	if !nowSet {
		d = -1
	}
	for _, ri := range cs.members(s) {
		cs.in[ri] += d
	}
	for wi, w := range cs.unsatBits[s*cs.words : (s+1)*cs.words] {
		for ; w != 0; w &= w - 1 {
			cs.u1[wi*64+bits.TrailingZeros64(w)] += d
		}
	}
}

// cost is columnCost over the tracked counters: same rows, same order,
// same float expression per row.
func (cs *colScorer) cost() float64 {
	total := 0.0
	for _, ri := range cs.active {
		u := cs.e.unsat[ri]
		var bit int
		switch cs.in[ri] {
		case 0:
			bit = 0
		case cs.cnt[ri]:
			bit = 1
		default:
			continue // members not uniform: no dichotomy satisfied
		}
		newly := cs.u1[ri]
		if bit == 1 {
			newly = len(u) - cs.u1[ri]
		}
		if newly > 0 {
			total += cs.e.rows[ri].weight * float64(newly) / float64(len(u))
		}
	}
	return total
}

// term is active row ri's cost term with in of its members in the column
// (its other counters as tracked); the screen's member-row deltas use it.
func (cs *colScorer) term(ri, in int) float64 {
	u := cs.e.unsat[ri]
	var newly int
	switch in {
	case 0:
		newly = cs.u1[ri]
	case cs.cnt[ri]:
		newly = len(u) - cs.u1[ri]
	default:
		return 0
	}
	return cs.e.rows[ri].weight * float64(newly) / float64(len(u))
}

// sigma is the sign with which flipping an unsatisfied outsider of active
// row ri toward the column's 1 side changes the row's term, given in of
// its members in the column: +1 when no member is in the column (the row
// counts outsiders at 1), −1 when all are (it counts outsiders at 0), and
// 0 when the members are mixed (the row counts nothing).
func (cs *colScorer) sigma(ri, in int) int {
	switch in {
	case 0:
		return 1
	case cs.cnt[ri]:
		return -1
	}
	return 0
}

// scanCand is one admissible flip of a move with its screened gain.
type scanCand struct {
	s   int
	est float64
}

// colScan holds solve's per-column state. Every buffer is sized on first
// use and reused by later columns, so a warmed encoder's column solve
// performs no heap allocation (the TestAllocsSolve gate).
type colScan struct {
	col      face.Constraint // the column under construction
	unsatBuf []int           // backing store of encoder.unsat
	cs       colScorer

	// Partial-code classes: classOf[s] is the dense id of s's code prefix
	// over the generated columns, classCnt[2c+b] counts class c's symbols
	// on side b, and over counts the (class, side) pairs above capacity.
	classOf  []int32
	classIdx []int32 // refinement scratch
	classCnt []int32
	over     int

	// The screen. q[ri] = w/|u| of active row ri. z[s] sums sigma·q over
	// the non-mixed active rows whose unsatisfied list holds s, so those
	// rows change by exactly d·z[s] in real arithmetic when s flips in
	// direction d. nonMixed is the bitset of non-mixed active rows.
	// sumW (Σ|w| over active rows) and transitions (row state changes
	// since the column started) size the float-error window.
	q           []float64
	z           []float64
	nonMixed    []uint64
	sumW        float64
	transitions int

	cand []scanCand
	sigs []int // inert flips scored in this move, for the skip
}

// fits reports whether the scratch is sized for the encoder's current
// universe and row count.
func (sc *colScan) fits(e *encoder) bool {
	return sc.col.N() == e.n && len(sc.cs.in) >= len(e.rows) &&
		sc.cs.words*64 >= len(e.rows)
}

// grow (re)sizes the scratch for the encoder's universe and row count,
// with headroom so a burst of guide rows resizes once.
func (sc *colScan) grow(e *encoder) {
	n, r := e.n, len(e.rows)+4
	if sc.col.N() != n {
		sc.col = face.NewConstraint(n)
		sc.classOf = make([]int32, n)
		sc.classIdx = make([]int32, 2*n)
		sc.classCnt = make([]int32, 2*n)
		sc.z = make([]float64, n)
		sc.cs.memberStart = make([]int, n+1)
		sc.cand = make([]scanCand, 0, n)
	}
	cs := &sc.cs
	cs.in = make([]int, r)
	cs.u1 = make([]int, r)
	cs.cnt = make([]int, r)
	sc.q = make([]float64, r)
	cs.words = (r + 63) / 64
	cs.unsatBits = make([]uint64, n*cs.words)
	sc.nonMixed = make([]uint64, cs.words)
}

// classify partitions the symbols by their codes over columns 0..j-1 —
// one refinement pass per column, ids dense in order of first appearance
// — and counts each class's symbols per side of the initial column.
func (sc *colScan) classify(e *encoder, j int, col face.Constraint, classCap int) {
	n := e.n
	clear(sc.classOf)
	k := 1
	for b := 0; b < j; b++ {
		idx := sc.classIdx[:2*k]
		for i := range idx {
			idx[i] = -1
		}
		next := int32(0)
		for s := 0; s < n; s++ {
			key := 2*sc.classOf[s] + int32(e.enc.Codes[s]>>uint(b)&1)
			if idx[key] < 0 {
				idx[key] = next
				next++
			}
			sc.classOf[s] = idx[key]
		}
		k = int(next)
	}
	cnt := sc.classCnt[:2*k]
	clear(cnt)
	for s := 0; s < n; s++ {
		side := int32(0)
		if col.Has(s) {
			side = 1
		}
		cnt[2*sc.classOf[s]+side]++
	}
	sc.over = 0
	for _, c := range cnt {
		if int(c) > classCap {
			sc.over++
		}
	}
}

// move moves symbol s's class count from side from to the other side,
// keeping the oversized-pair count current. An admissible move never
// overfills its target side, so only the source side can stop being
// oversized.
func (sc *colScan) move(s, from, classCap int) {
	c := 2 * int(sc.classOf[s])
	if int(sc.classCnt[c+from]) == classCap+1 {
		sc.over--
	}
	sc.classCnt[c+from]--
	sc.classCnt[c+1-from]++
}

// resetScreen builds the screen's aggregates for the column's initial
// state.
func (sc *colScan) resetScreen(e *encoder) {
	cs := &sc.cs
	clear(sc.z)
	clear(sc.nonMixed[:cs.words])
	sc.sumW, sc.transitions = 0, 0
	for _, ri := range cs.active {
		u := e.unsat[ri]
		w := e.rows[ri].weight
		sc.q[ri] = w / float64(len(u))
		sc.sumW += math.Abs(w)
		sg := cs.sigma(ri, cs.in[ri])
		if sg == 0 {
			continue
		}
		sc.nonMixed[ri/64] |= 1 << uint(ri%64)
		dz := float64(sg) * sc.q[ri]
		for _, s := range u {
			sc.z[s] += dz
		}
	}
}

// estimate is the screened gain of flipping s in direction d (+1 toward
// the column's 1 side, −1 toward 0): d·z[s] for the rows holding s as an
// unsatisfied outsider, plus the term change of each active row having s
// as a member.
func (sc *colScan) estimate(s, d int) float64 {
	cs := &sc.cs
	g := float64(d) * sc.z[s]
	for _, ri := range cs.members(s) {
		in := cs.in[ri]
		g += cs.term(ri, in+d) - cs.term(ri, in)
	}
	return g
}

// commit updates the screen for the flip of s in direction d, before the
// scorer records it: each member row whose state changes moves its
// unsatisfied outsiders' aggregates by the change of sigma·q.
func (sc *colScan) commit(e *encoder, s, d int) {
	cs := &sc.cs
	for _, ri := range cs.members(s) {
		old, nw := cs.sigma(ri, cs.in[ri]), cs.sigma(ri, cs.in[ri]+d)
		if old == nw {
			continue
		}
		sc.transitions++
		dz := float64(nw-old) * sc.q[ri]
		for _, t := range e.unsat[ri] {
			sc.z[t] += dz
		}
		if nw == 0 {
			sc.nonMixed[ri/64] &^= 1 << uint(ri%64)
		} else {
			sc.nonMixed[ri/64] |= 1 << uint(ri%64)
		}
	}
}

// window bounds how far below the best estimate a candidate's estimate
// may lie while its float gain cost − base still ties the maximum
// (DESIGN.md §10 derives it): with unit roundoff u, R active rows, T row
// state changes so far and W = Σ|w| over the active rows,
//
//	eps = 64u·(R+T+2)·W + 8u·|base| + (R+T+2)·2^-1070,
//
// twice the proven bound, plus an absolute term for underflowing
// products and quotients. The proof assumes no overflow; weights too
// large (or not finite) to guarantee that get an infinite window, which
// re-scores every candidate.
func (sc *colScan) window(base float64) float64 {
	const u = 0x1p-53
	if !(sc.sumW < 0x1p900) {
		return math.Inf(1)
	}
	k := float64(len(sc.cs.active) + sc.transitions + 2)
	return 64*u*k*sc.sumW + 8*u*math.Abs(base) + k*0x1p-1070
}

// inert reports whether flipping s in direction d leaves every active
// row having s as a member mixed, before and after: the cost skips mixed
// rows, so only the rows holding s as an unsatisfied outsider can change
// the flip's re-summed cost.
func (sc *colScan) inert(s, d int) bool {
	cs := &sc.cs
	for _, ri := range cs.members(s) {
		in := cs.in[ri]
		if cs.sigma(ri, in) != 0 || cs.sigma(ri, in+d) != 0 {
			return false
		}
	}
	return true
}

// scoredSig reports whether an inert flip of s away from side set has
// the same term-changing signature as an inert flip already scored this
// move: the same direction and the same set of non-mixed active rows
// holding the symbol as an unsatisfied outsider. Such a flip changes the
// same counters of the same counted rows by the same amounts, so its
// re-summed cost is bit-identical.
func (sc *colScan) scoredSig(col face.Constraint, s int, set bool) bool {
	cs := &sc.cs
	a := cs.unsatBits[s*cs.words : (s+1)*cs.words]
	for _, t := range sc.sigs {
		if col.Has(t) != set {
			continue
		}
		b := cs.unsatBits[t*cs.words : (t+1)*cs.words]
		same := true
		for i, w := range a {
			if (w^b[i])&sc.nonMixed[i] != 0 {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}
