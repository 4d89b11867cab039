package espresso

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"picola/internal/covering"
	"picola/internal/ctxutil"
	"picola/internal/cube"
)

// TTMaxInputs is the widest single-output function the truth-table path
// takes: its 2^6 minterms fill one uint64.
const TTMaxInputs = 6

// Mask0[v] holds the minterms whose bit v is 0. The exact truth-table
// counter in internal/exact shares it; it must not be modified.
var Mask0 = [TTMaxInputs]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// Counter is a reusable count-only MinimizeContext for single-output
// binary functions of at most TTMaxInputs inputs. A cube is the one
// positional word cube.BinaryInterned(nv) uses (value val of variable v
// is bit 2v+val); every semantic question — does the rest of the cover
// plus DC cover this cube, which minterms of it are left, may this
// variable be freed — is answered on 64-bit minterm masks, while every
// structural step (the stable size sorts, SCC's keep order, EXPAND's
// column counts and tie-break, IRREDUNDANT's disjoint-sharp shards and
// covering call, LAST_GASP) runs on the same cubes in the same order as
// the cover path. Each decision, and so the returned cover, its count
// and the iteration count, match MinimizeContext (DESIGN.md §10 has the
// argument; the cover path is the tests' oracle). After warm-up a call
// allocates nothing.
//
// A Counter is not safe for concurrent use; pool instances across
// goroutines.
type Counter struct {
	nv    int
	full  uint64 // every minterm of the space
	pairs uint64 // bit 2v of every variable field
	off   uint64

	f, g, ess, wdc   []uint64
	masks, suf       []uint64
	rp, base, sa, sb []uint64
	red, cand, trial []uint64
	lg               []uint64
	covered          []bool
	rowFlat, rowOff  []int
	rowCols          [][]int
	solver           covering.Solver
}

// CountTT returns len(MinimizeContext(ctx, f).Cubes) for the function
// whose ON cover lists the minterms on in that order (the order matters:
// EXPAND visits cubes in it), whose OFF-set is the minterm mask off, and
// whose don't-care cover is dc, one cube word each (its order feeds
// IRREDUNDANT's shards). dc must cover exactly the minterms outside ON ∪
// OFF. The ON∩OFF error, the context checks and the espresso metrics are
// those of MinimizeContext.
func (t *Counter) CountTT(ctx context.Context, nv int, on []uint64, off uint64, dc []uint64) (int, error) {
	if err := ctxutil.Check(ctx, "espresso.minimize"); err != nil {
		return 0, err
	}
	mMinimize.Inc()
	hOnSize.Observe(int64(len(on)))
	t0 := time.Now()
	F, err := t.minimize(ctx, nv, on, off, dc)
	d := time.Since(t0)
	tMinimize.Observe(d)
	hMinimizeNS.Observe(int64(d))
	return len(F), err
}

// minimize is MinimizeContext's body on words. The result aliases the
// Counter's buffers until the next call.
func (t *Counter) minimize(ctx context.Context, nv int, on []uint64, off uint64, dc []uint64) ([]uint64, error) {
	if nv < 0 || nv > TTMaxInputs {
		return nil, fmt.Errorf("espresso: %d inputs exceeds the truth-table limit of %d", nv, TTMaxInputs)
	}
	t.nv = nv
	t.full = ^uint64(0) >> uint(64-1<<uint(nv))
	t.pairs = 0x5555555555555555 >> uint(64-2*nv)
	t.off = off & t.full
	for _, m := range on {
		if t.off>>(m&t.full)&1 != 0 {
			d := cube.BinaryInterned(nv)
			s := d.String(cube.Cube{t.minterm(m)})
			return nil, fmt.Errorf("espresso: ON-set intersects OFF-set (%s ∩ %s)", s, s)
		}
	}
	F, spare := t.f[:0], t.g[:0]
	defer func() { t.f, t.g = F[:0], spare[:0] }()
	for _, m := range on {
		F = append(F, t.minterm(m))
	}
	F = t.scc(F)
	if len(F) == 0 {
		return F, nil
	}
	dcMask := t.coverMask(dc)
	spare = t.expand(spare, F)
	F = t.irredundant(F[:0], spare, dc, dcMask)

	ess := t.ess[:0]
	ess, spare = t.essentials(ess, spare[:0], F, dcMask)
	F, spare = spare, F
	wdc := append(append(t.wdc[:0], dc...), ess...)
	wdcMask := dcMask | t.coverMask(ess)
	t.ess, t.wdc = ess, wdc

	best := t.cost(F)
	for iter := 0; iter < 100; iter++ {
		if err := ctxutil.Check(ctx, "espresso.iterate"); err != nil {
			return nil, err
		}
		mIterations.Inc()
		spare = t.reduce(spare[:0], F, wdcMask)
		F = t.expand(F[:0], spare)
		spare = t.irredundant(spare[:0], F, wdc, wdcMask)
		F, spare = spare, F
		c := t.cost(F)
		if !c.less(best) {
			break
		}
		best = c
	}
	F = t.lastGasp(F, wdc, wdcMask)
	F = t.scc(append(F, ess...))
	return F, nil
}

// minterm returns the cube word of minterm m.
func (t *Counter) minterm(m uint64) uint64 {
	var w uint64
	for v := 0; v < t.nv; v++ {
		w |= 1 << uint(2*v+int(m>>uint(v)&1))
	}
	return w
}

// mask returns the minterms of cube w.
func (t *Counter) mask(w uint64) uint64 {
	m := t.full
	for v := 0; v < t.nv; v++ {
		switch w >> uint(2*v) & 3 {
		case 0:
			return 0
		case 1:
			m &= Mask0[v]
		case 2:
			m &^= Mask0[v]
		}
	}
	return m
}

// coverMask returns the minterms of a cube list.
func (t *Counter) coverMask(F []uint64) uint64 {
	var m uint64
	for _, w := range F {
		m |= t.mask(w)
	}
	return m
}

// supercube returns the smallest cube holding the minterms of m.
func (t *Counter) supercube(m uint64) uint64 {
	var w uint64
	for v := 0; v < t.nv; v++ {
		if m&Mask0[v] != 0 {
			w |= 1 << uint(2*v)
		}
		if m&^Mask0[v] != 0 {
			w |= 2 << uint(2*v)
		}
	}
	return w
}

// nonempty reports whether every field of w holds a value.
func (t *Counter) nonempty(w uint64) bool { return (w|w>>1)&t.pairs == t.pairs }

// cost is coverCost on words: cubes, then literals (non-full fields).
func (t *Counter) cost(F []uint64) cost {
	c := cost{cubes: len(F)}
	for _, w := range F {
		c.lits += t.nv - bits.OnesCount64(w&(w>>1)&t.pairs)
	}
	return c
}

// restMasks fills t.masks with each cube's minterms and t.suf with the
// suffix unions (t.suf[i] = minterms of F[i:]), the two halves of every
// "rest of the cover" union.
func (t *Counter) restMasks(F []uint64) {
	t.masks = t.masks[:0]
	for _, w := range F {
		t.masks = append(t.masks, t.mask(w))
	}
	if cap(t.suf) < len(F)+1 {
		t.suf = make([]uint64, len(F)+1)
	}
	t.suf = t.suf[:len(F)+1]
	t.suf[len(F)] = 0
	for i := len(F) - 1; i >= 0; i-- {
		t.suf[i] = t.suf[i+1] | t.masks[i]
	}
}

// sortBySize is the stable sort.SliceStable by cube.SetBits the cover
// path runs (ascending, or descending when desc), as an insertion sort.
func sortBySize(F []uint64, desc bool) {
	for i := 1; i < len(F); i++ {
		w, k := F[i], bits.OnesCount64(F[i])
		j := i
		for ; j > 0; j-- {
			p := bits.OnesCount64(F[j-1])
			if desc && p >= k || !desc && p <= k {
				break
			}
			F[j] = F[j-1]
		}
		F[j] = w
	}
}

// scc is Cover.SCC in place: drop empty cubes, sort by descending size
// (stable), keep each cube not contained in an already kept one.
func (t *Counter) scc(F []uint64) []uint64 {
	n := 0
	for _, w := range F {
		if t.nonempty(w) {
			F[n] = w
			n++
		}
	}
	F = F[:n]
	sortBySize(F, true)
	kept := F[:0]
	for _, w := range F {
		contained := false
		for _, k := range kept {
			if w&^k == 0 {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, w)
		}
	}
	return kept
}

// expand is expand on words: F (reordered in place) expanded into dst.
func (t *Counter) expand(dst, F []uint64) []uint64 {
	sortBySize(F, false)
	if cap(t.covered) < len(F) {
		t.covered = make([]bool, len(F))
	}
	covered := t.covered[:len(F)]
	for i := range covered {
		covered[i] = false
	}
	var colCount [2 * TTMaxInputs]int
	t.columns(&colCount, F)
	for i, c := range F {
		if covered[i] {
			continue
		}
		p := t.expandCube(c, &colCount)
		for j := i + 1; j < len(F); j++ {
			if !covered[j] && F[j]&^p == 0 {
				covered[j] = true
			}
		}
		dst = append(dst, p)
	}
	return t.scc(dst)
}

// columns counts, per value bit, the cubes of F holding it.
func (t *Counter) columns(colCount *[2 * TTMaxInputs]int, F []uint64) {
	for _, w := range F {
		for b := 0; b < 2*t.nv; b++ {
			colCount[b] += int(w >> uint(b) & 1)
		}
	}
}

// expandCube raises, while one is feasible, the unset bit with the
// highest column count (the lowest such bit on ties). Every cube reaching
// here has a value in each field, so an unset bit 2v+val frees variable
// v: the cube's minterms gain their mirror image across v, and the raise
// is feasible when that keeps them off the OFF-set — exactly the bits the
// cover path leaves unblocked.
func (t *Counter) expandCube(c uint64, colCount *[2 * TTMaxInputs]int) uint64 {
	m := t.mask(c)
	for {
		best, bestScore, bestMask := -1, -1, uint64(0)
		for b := 0; b < 2*t.nv; b++ {
			if c>>uint(b)&1 != 0 || colCount[b] <= bestScore {
				continue
			}
			s := uint(1) << uint(b>>1)
			grown := m | m>>s
			if b&1 == 1 {
				grown = m | m<<s
			}
			if grown&t.off != 0 {
				continue
			}
			best, bestScore, bestMask = b, colCount[b], grown
		}
		if best < 0 {
			return c
		}
		c |= 1 << uint(best)
		m = bestMask
	}
}

// irredundant is irredundant on words: F split into the relatively
// essential cubes (written to dst) and the partially redundant ones, of
// which a minimum subset covering the shards E ∪ dc leaves is chosen.
func (t *Counter) irredundant(dst, F, dc []uint64, dcMask uint64) []uint64 {
	if len(F) <= 1 {
		return append(dst, F...)
	}
	t.restMasks(F)
	rp := t.rp[:0]
	var pre, baseMask uint64
	for i, w := range F {
		if t.masks[i]&^(pre|t.suf[i+1]|dcMask) == 0 {
			rp = append(rp, w)
		} else {
			dst = append(dst, w)
			baseMask |= t.masks[i]
		}
		pre |= t.masks[i]
	}
	ess := len(dst)
	baseMask |= dcMask
	kept := rp[:0]
	for _, w := range rp {
		if t.mask(w)&^baseMask != 0 {
			kept = append(kept, w)
		}
	}
	rp = kept
	t.rp = rp
	if len(rp) == 0 {
		return dst
	}
	const maxRp, maxShards = 64, 4096
	if len(rp) > maxRp {
		return t.irredundantSeq(dst[:0], F, dc, dcMask)
	}
	base := append(append(t.base[:0], dst[:ess]...), dc...)
	t.base = base
	rowFlat, rowOff := t.rowFlat[:0], append(t.rowOff[:0], 0)
	cur, nxt := t.sa[:0], t.sb[:0]
	shardCount := 0
	for _, c := range rp {
		cur = append(cur[:0], c)
		for _, b := range base {
			nxt = nxt[:0]
			for _, s := range cur {
				nxt = t.sharp(nxt, s, b)
			}
			cur, nxt = nxt, cur
			if len(cur) == 0 {
				break
			}
		}
		shardCount += len(cur)
		if shardCount > maxShards {
			t.sa, t.sb, t.rowFlat, t.rowOff = cur, nxt, rowFlat, rowOff
			return t.irredundantSeq(dst[:0], F, dc, dcMask)
		}
		for _, s := range cur {
			for pi, p := range rp {
				if s&^p == 0 {
					rowFlat = append(rowFlat, pi)
				}
			}
			rowOff = append(rowOff, len(rowFlat))
		}
	}
	t.sa, t.sb, t.rowFlat, t.rowOff = cur, nxt, rowFlat, rowOff
	rowCols := t.rowCols[:0]
	for r := 0; r+1 < len(rowOff); r++ {
		rowCols = append(rowCols, rowFlat[rowOff[r]:rowOff[r+1]])
	}
	t.rowCols = rowCols
	for _, pi := range t.solver.Solve(rowCols, len(rp), irredundantCovering) {
		dst = append(dst, rp[pi])
	}
	return dst
}

// irredundantCovering is the covering budget irredundant passes.
var irredundantCovering = covering.Options{MaxNodes: 200000}

// sharp appends cover.DisjointSharp(a, b) to out: the pieces of a
// outside b, one per variable in order, each restricted to a ∩ b on the
// variables before it.
func (t *Counter) sharp(out []uint64, a, b uint64) []uint64 {
	if !t.nonempty(a & b) {
		return append(out, a)
	}
	prefix := a
	for v := 0; v < t.nv; v++ {
		field := uint64(3) << uint(2*v)
		r := prefix &^ (field & b)
		if a&field&^b != 0 && t.nonempty(r) {
			out = append(out, r)
		}
		prefix &^= field &^ b
	}
	return out
}

// irredundantSeq is irredundantSeq on words: F (reordered in place)
// smallest first, each cube dropped when the rest plus dc covers it.
func (t *Counter) irredundantSeq(dst, F, dc []uint64, dcMask uint64) []uint64 {
	sortBySize(F, false)
	kept := append(dst, F...)
	for i := 0; i < len(kept); {
		rest := dcMask
		for j, w := range kept {
			if j != i {
				rest |= t.mask(w)
			}
		}
		if t.mask(kept[i])&^rest == 0 {
			kept = append(kept[:i], kept[i+1:]...)
			continue
		}
		i++
	}
	return kept
}

// essentials is extractEssentials on words.
func (t *Counter) essentials(ess, rest, F []uint64, dcMask uint64) ([]uint64, []uint64) {
	t.restMasks(F)
	var pre uint64
	for i, w := range F {
		if t.masks[i]&^(pre|t.suf[i+1]|dcMask) == 0 {
			rest = append(rest, w)
		} else {
			ess = append(ess, w)
		}
		pre |= t.masks[i]
	}
	return ess, rest
}

// reduce is reduce on words: F (reordered in place) largest first, each
// cube shrunk to the supercube of its minterms that neither the cubes
// already reduced, the cubes still to come nor dc cover.
func (t *Counter) reduce(dst, F []uint64, dcMask uint64) []uint64 {
	sortBySize(F, true)
	t.restMasks(F)
	var done uint64
	for i, c := range F {
		left := t.masks[i] &^ (done | t.suf[i+1] | dcMask)
		if left == 0 {
			continue
		}
		if nc := c & t.supercube(left); t.nonempty(nc) {
			dst = append(dst, nc)
			done |= t.mask(nc)
		}
	}
	return dst
}

// lastGasp is lastGasp on words. It returns F itself, or F's buffer
// overwritten with the improved cover.
func (t *Counter) lastGasp(F, dc []uint64, dcMask uint64) []uint64 {
	t.restMasks(F)
	red := t.red[:0]
	var pre uint64
	for i, c := range F {
		left := t.masks[i] &^ (pre | t.suf[i+1] | dcMask)
		pre |= t.masks[i]
		if left == 0 {
			continue
		}
		if nc := c & t.supercube(left); t.nonempty(nc) {
			red = append(red, nc)
		}
	}
	t.red = red
	if len(red) == 0 {
		return F
	}
	var colCount [2 * TTMaxInputs]int
	t.columns(&colCount, red)
	cand := t.cand[:0]
	for _, c := range red {
		p := t.expandCube(c, &colCount)
		covered := 0
		for _, rc := range red {
			if rc&^p == 0 {
				covered++
			}
		}
		if covered >= 2 {
			cand = append(cand, p)
		}
	}
	t.cand = cand
	if len(cand) == 0 {
		return F
	}
	trial := t.scc(append(append(t.trial[:0], F...), cand...))
	t.trial = trial
	g := t.irredundant(t.lg[:0], trial, dc, dcMask)
	t.lg = g
	if t.cost(g).less(t.cost(F)) {
		return append(F[:0], g...)
	}
	return F
}
