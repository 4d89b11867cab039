// Package core implements PICOLA (Partial Input COLumn based Algorithm),
// the paper's primary contribution: a column-based algorithm for the
// partial face-constrained encoding problem using minimum code length.
//
// The encoder generates the code matrix one column at a time. A constraint
// matrix in the paper's notation remembers, for every seed dichotomy, the
// column that satisfied it; from it the algorithm reads off the dimension
// of each constraint's supercube and its intruder set at no extra cost.
// Before each column, Classify detects constraints that can no longer be
// satisfied in B^nv (via nv-compatibility against already-satisfied
// constraints and capacity checks) and substitutes them by their
// guide-constraints: the group constraint on their intruder set. By
// Theorem I, making the intruders span a small cube disjoint from the
// members lets the violated constraint be implemented with
// dim(super(L)) − dim(super(I)) product terms instead of up to one per
// member.
package core

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"picola/internal/cover"
	"picola/internal/ctxutil"
	"picola/internal/cube"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/obs"
	"picola/internal/par"
)

// Hot-path metrics (atomic; pointers cached so no lookup on the hot path).
var (
	mEncodes     = obs.Default.Counter("core.encodes")
	mColumns     = obs.Default.Counter("core.columns")
	mColumnScans = obs.Default.Counter("core.dichotomy_scans")
	mInfeasible  = obs.Default.Counter("core.classify.infeasible")
	// Compatibility-memo effectiveness: pairwise nv-compatibility lookups
	// answered by a valid memo entry vs recomputed. The rate gauge is
	// refreshed once per classify call.
	mCmpMemoHits   = obs.Default.Counter("core.classify.memo_hits")
	mCmpMemoMisses = obs.Default.Counter("core.classify.memo_misses")
	gCmpMemoRate   = obs.Default.Gauge("core.classify.memo_hit_rate_pct")
	mGuides        = obs.Default.Counter("core.guides")
	mEstimates     = obs.Default.Counter("core.estimates")
	// mPolishCarried counts exact-polish constraint evaluations answered by
	// the dirty-set carry instead of a minimizer request. The carry decision
	// is a pure function of the current codes, so the count is deterministic
	// and identical at every cache/worker configuration.
	mPolishCarried = obs.Default.Counter("core.polish.carried")
	tPortfolio     = obs.Default.Timer("core.stage.portfolio")
	tPolish        = obs.Default.Timer("core.stage.polish")
	tExactPolish   = obs.Default.Timer("core.stage.exact_polish")
	tFinalize      = obs.Default.Timer("core.stage.finalize")
	// hEncode records whole-Encode latency: the distribution behind the
	// per-row percentile columns of the run ledger.
	hEncode = obs.Default.LatencyHistogram("core.encode_ns")
)

// Kind distinguishes original face constraints from guide-constraints.
type Kind int

// Constraint kinds.
const (
	Original Kind = iota
	GuideKind
)

// Options tune the encoder.
type Options struct {
	// NV overrides the code length; 0 means the problem's minimum length.
	NV int
	// GuideWeight scales the dichotomy weights of guide-constraints
	// relative to originals. 0 means the default 0.4.
	GuideWeight float64
	// MaxGuideDepth bounds recursive guide-of-guide substitution.
	// 0 means the default 2.
	MaxGuideDepth int
	// DisableGuides turns guide-constraint generation off (for ablation
	// benchmarks: the algorithm degenerates to plain weighted dichotomy
	// satisfaction).
	DisableGuides bool
	// DisableClassify turns dynamic infeasibility detection off (for
	// ablation; implies no guides are ever generated mid-run).
	DisableClassify bool
	// DisablePolish turns off the cube-aware refinement pass that follows
	// column generation (for ablation).
	DisablePolish bool
	// PolishMaxSymbols bounds the problem size the polish pass runs on
	// (its cost grows with n³); 0 means the default 64.
	PolishMaxSymbols int
	// ExactPolishBudget bounds the espresso evaluations of the final
	// exact-cost swap pass on small problems (n ≤ 32); 0 means the
	// default 4000, negative disables the pass.
	ExactPolishBudget int
	// Restarts is the number of column-generation variants tried (guide
	// weight and start-column perturbations); the best by cube estimate is
	// kept. 0 means the default 4, 1 disables the portfolio.
	Restarts int
	// Workers bounds how many portfolio variants run concurrently; ≤ 1
	// runs the portfolio sequentially. The variants are independent and
	// the winner is selected by (score, variant index) in index order, so
	// the result is identical at every worker count.
	Workers int
	// Cache memoizes the exact constraint minimizations of the variant
	// scoring and the exact-cost polish (nil = no memoization). Cached
	// counts are a pure function of the minimization input, so sharing a
	// cache across runs never changes a result.
	Cache *eval.Cache
	// Trace receives structured span/event records for every pipeline
	// stage (restart, column, classify, guide, polish, exact-polish). Nil
	// means tracing is off and costs nothing.
	Trace obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.GuideWeight == 0 {
		o.GuideWeight = 0.4
	}
	if o.MaxGuideDepth == 0 {
		o.MaxGuideDepth = 2
	}
	if o.PolishMaxSymbols == 0 {
		o.PolishMaxSymbols = 64
	}
	if o.ExactPolishBudget == 0 {
		o.ExactPolishBudget = 8000
	}
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	return o
}

// tracked is one row of the working constraint matrix.
type tracked struct {
	kind      Kind
	depth     int // guide nesting depth (0 for originals)
	parent    int // index of the constraint this guides, or -1
	weight    float64
	members   face.Constraint
	outsiders face.Constraint // symbols whose seed dichotomies are tracked
	// mark[s] for outsiders: 0 = dichotomy unsatisfied, c+1 = satisfied by
	// column c. Non-outsiders hold -1.
	mark []int
	// agreeCols/agreeVals: generated columns where all members received
	// the same bit, and that bit. dim(super) = nv − len(agreeCols).
	agreeCols []int
	agreeVals []int
	// unsat is the bitset view of the unsatisfied outsiders (mark == 0),
	// maintained alongside mark so intruder counts are a word-parallel
	// popcount instead of an O(n) scan.
	unsat face.Constraint
	// cnt/dLo: member count and its minimum cube dimension — constants of
	// the fixed member set, precomputed at row creation.
	cnt int
	dLo int

	satisfied  bool
	infeasible bool
}

func (t *tracked) unsatisfiedCount() int {
	return t.unsat.Count()
}

// intruders returns the outsiders whose dichotomies are still unsatisfied
// — the constraint's current intruder set I_k.
func (t *tracked) intruders() face.Constraint {
	return t.unsat.Clone()
}

// Result reports the outcome of an encoding run.
type Result struct {
	Encoding *face.Encoding
	// Satisfied[i] for each original constraint of the problem.
	Satisfied []bool
	// Infeasible[i]: constraint i was detected infeasible during the run
	// (its guide-constraint, if any, steered the remaining columns).
	Infeasible []bool
	// Guides lists the guide-constraints generated, in creation order.
	Guides []face.Constraint
	// TheoremICubes[i]: for violated constraint i, the product-term count
	// guaranteed by Theorem I when its intruders span a disjoint cube, or
	// 0 when the theorem does not apply (evaluate exactly instead).
	TheoremICubes []int
}

// encoder carries the run state.
type encoder struct {
	ctx       context.Context
	p         *face.Problem
	opts      Options
	n         int
	nv        int
	enc       *face.Encoding
	rows      []*tracked // originals first, then guides as they appear
	nOri      int
	startZero bool // solve variant: start columns at all zeros
	// Per-solve caches: the marks only change in apply, so each row's
	// unsatisfied-outsider list is invariant while one column is built.
	unsat [][]int
	// scan is solve's reusable per-column scratch (colscan.go).
	scan colScan

	// Pairwise nv-compatibility memo, flattened [satisfied][candidate]
	// with row stride cmpStride (see compatibleFast); grown on demand
	// when guides append rows.
	cmp       []cmpEntry
	cmpStride int
	// infeasScratch backs classify's result between calls so a warmed
	// column scan performs no heap allocation (the TestAllocs gate).
	infeasScratch []int
	// traceAttrs is the reusable event-attrs map; Emit implementations
	// must not retain it (the obs.Tracer contract).
	traceAttrs map[string]float64

	tr      obs.Tracer // nil when untraced
	variant int        // portfolio variant index, for trace records
	// Solve diagnostics of the last generated column.
	lastMoves int
	lastCost  float64

	// Converged-polish memo: when a polish pass ends at a local optimum,
	// the codes it converged at are snapshotted here. A later polish call
	// that starts from byte-identical codes would re-evaluate and
	// re-reject every candidate — the winning variant's full refinement
	// repeats its in-variant light polish exactly — so it returns
	// immediately instead. Any code change between the calls fails the
	// comparison and polishes normally.
	polishConverged bool
	polishedCodes   []uint64
}

// Encode runs PICOLA on the problem and returns the minimum-length
// encoding together with per-constraint diagnostics. A small deterministic
// portfolio of column-generation variants is tried and the best result by
// the cube estimate kept (Options.Restarts).
func Encode(p *face.Problem, opts ...Options) (*Result, error) {
	return EncodeContext(context.Background(), p, opts...)
}

// EncodeContext is Encode under a run context. The deadline is checked
// at every restart, column, column-scan move, polish pass, and
// minimization boundary; a cancelled run returns a wrapped
// context.Canceled/DeadlineExceeded error and never a partial or
// different encoding (the cancellation contract, DESIGN.md §14).
func EncodeContext(ctx context.Context, p *face.Problem, opts ...Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	defer func() { hEncode.Observe(int64(time.Since(t0))) }()
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty problem")
	}
	nv := o.NV
	if nv == 0 {
		nv = p.MinLength()
	}
	if minNeeded := p.MinLength(); nv < minNeeded {
		return nil, fmt.Errorf("core: %d columns cannot distinguish %d symbols", nv, n)
	}
	if nv > 64 {
		return nil, fmt.Errorf("core: code length %d exceeds 64", nv)
	}
	mEncodes.Inc()
	best, bestScore, bestVariant, err := runPortfolio(ctx, p, o, nv, o.affordsExactCost(n, nv))
	if err != nil {
		return nil, err
	}
	if o.Trace != nil {
		obs.Emit(o.Trace, obs.Event{Kind: obs.KindEvent, Stage: "select", Name: "winner",
			Attrs: map[string]float64{
				"variant": float64(bestVariant),
				"score":   float64(bestScore),
			}})
	}
	// Only the winning variant gets the full refinement.
	if !o.DisablePolish && n <= o.PolishMaxSymbols {
		if err := best.polish(20); err != nil {
			return nil, err
		}
	}
	if !o.DisablePolish && o.affordsExactCost(n, nv) {
		if err := best.exactPolish(o.ExactPolishBudget); err != nil {
			return nil, err
		}
	}
	stopFinalize := tFinalize.Start()
	best.reclassifyFromScratch()
	best.finalClassify()
	r := best.result()
	stopFinalize()
	return r, nil
}

// affordsExactCost reports whether the problem is small enough to score
// encodings by the exact minimized cube count: the portfolio's variant
// selection and the final exact-cost swap polish both use it. The bound
// (≤ 40 symbols at ≤ 7 columns, with a positive evaluation budget) keeps
// the Quine–McCluskey evaluator's cost negligible next to column
// generation; anything larger falls back to the espresso-free estimate.
func (o Options) affordsExactCost(n, nv int) bool {
	return n <= 40 && nv <= 7 && o.ExactPolishBudget > 0
}

// runPortfolio tries the deterministic portfolio of column-generation
// variants and returns the best encoder by the selection score (exact
// constraint cubes when affordable, the cost-model estimate otherwise).
// The variants are independent, so up to o.Workers of them run
// concurrently; the reduction walks the ordered results and keeps the
// lowest-scoring variant, ties to the smaller index — exactly the
// sequential selection, whatever the completion order.
func runPortfolio(ctx context.Context, p *face.Problem, o Options, nv int, exactSelect bool) (*encoder, int, int, error) {
	defer tPortfolio.Start()()
	type variantRun struct {
		e     *encoder
		score int
	}
	runs, err := par.MapContext(ctx, o.Restarts, o.Workers, func(v int) (variantRun, error) {
		if err := ctxutil.Check(ctx, "core.restart"); err != nil {
			return variantRun{}, err
		}
		vo := o
		switch v {
		case 1:
			vo.GuideWeight = o.GuideWeight * 2
		case 2:
			vo.GuideWeight = o.GuideWeight / 2
		}
		t0 := time.Now()
		e, err := encodeOnce(ctx, p, vo, nv, v == 3, v)
		if err != nil {
			return variantRun{}, err
		}
		score := 0
		if exactSelect {
			for i, c := range p.Constraints {
				k, err := o.Cache.ConstraintCubesContext(ctx, e.enc, c)
				if err != nil {
					return variantRun{}, err
				}
				score += p.Weight(i) * k
			}
		} else {
			cm := newCostModel(e.enc, p.Constraints)
			for i := range p.Constraints {
				score += p.Weight(i) * cm.estimate(i)
			}
			cm.flush()
		}
		if o.Trace != nil {
			obs.Emit(o.Trace, obs.Event{Kind: obs.KindSpan, Stage: "restart",
				DurMS: obs.MS(time.Since(t0)),
				Attrs: map[string]float64{
					"variant":      float64(v),
					"guide_weight": vo.GuideWeight,
					"start_zero":   boolAttr(v == 3),
					"score":        float64(score),
				}})
		}
		return variantRun{e: e, score: score}, nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	best, bestScore, bestVariant := runs[0].e, runs[0].score, 0
	for v := 1; v < len(runs); v++ {
		if runs[v].score < bestScore {
			best, bestScore, bestVariant = runs[v].e, runs[v].score, v
		}
	}
	return best, bestScore, bestVariant, nil
}

func boolAttr(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// encodeOnce runs one column-generation pass (plus a light estimate-based
// polish) under the given variant options.
func encodeOnce(ctx context.Context, p *face.Problem, o Options, nv int, startZero bool, variant int) (*encoder, error) {
	n := p.N()
	e := &encoder{ctx: ctx, p: p, opts: o, n: n, nv: nv,
		enc: face.NewEncoding(n, nv), startZero: startZero, tr: o.Trace,
		variant: variant}
	for i, c := range p.Constraints {
		e.rows = append(e.rows, newTracked(c, Original, 0, -1, float64(p.Weight(i))))
	}
	e.nOri = len(e.rows)
	for j := 0; j < e.nv; j++ {
		if err := ctxutil.Check(ctx, "core.column"); err != nil {
			return nil, err
		}
		var t0 time.Time
		if e.tr != nil {
			t0 = time.Now()
		}
		if !o.DisableClassify {
			e.updateConstraints(j)
		}
		col, err := e.solve(j)
		if err != nil {
			return nil, err
		}
		e.apply(col, j)
		mColumns.Inc()
		if e.tr != nil {
			obs.Emit(e.tr, obs.Event{Kind: obs.KindSpan, Stage: "column",
				DurMS: obs.MS(time.Since(t0)),
				Attrs: map[string]float64{
					"variant": float64(e.variant),
					"col":     float64(j),
					"ones":    float64(col.Count()),
					"moves":   float64(e.lastMoves),
					"cost":    e.lastCost,
				}})
		}
	}
	// The column scratch is dead once the columns are built; drop it so
	// the portfolio's finished variants do not hold it.
	e.scan, e.unsat = colScan{}, nil
	if !o.DisablePolish && n <= o.PolishMaxSymbols {
		if err := e.polish(4); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// exactPolish refines the encoding under the exact minimized cube count:
// first-improvement descent over code swaps and spare-code moves, followed
// by deterministic basin hopping — at a local optimum, apply the
// least-damaging swap and descend again, keeping the best encoding seen.
// A swap exchanges codes between two symbols, so the function of any
// constraint containing neither symbol is literally unchanged (same
// member codes, same non-member code multiset) — only the touched
// memberships are re-minimized. The evaluation budget bounds the pass.
func (e *encoder) exactPolish(budget int) error {
	defer tExactPolish.Start()()
	t0 := time.Now()
	n := e.n
	r := len(e.p.Constraints)
	if r == 0 {
		return nil
	}
	ps := &polishState{e: e, budget: budget}
	ps.cost = make([]int, r)
	for i, c := range e.p.Constraints {
		k, err := e.exactCubes(c)
		if err != nil {
			return err
		}
		ps.evals++
		ps.cost[i] = k
	}
	ps.memberOf = make([][]int, n)
	for i, c := range e.p.Constraints {
		for _, m := range c.Members() {
			ps.memberOf[m] = append(ps.memberOf[m], i)
		}
	}
	mask := uint64(1)<<uint(e.nv) - 1
	used := make(map[uint64]bool, n)
	for _, c := range e.enc.Codes {
		used[c&mask] = true
	}
	for code := 0; code < 1<<uint(e.nv); code++ {
		if !used[uint64(code)] {
			ps.spares = append(ps.spares, uint64(code))
		}
	}
	ps.commitSeq = 1
	ps.pairTried = make([]int, n*n)
	ps.moveTried = make([]int, n*len(ps.spares))
	before := ps.total()
	if err := ps.descend(); err != nil {
		return err
	}
	// Basin hopping: remember the best encoding; kick with the cheapest
	// non-improving swap and descend again.
	bestCodes := append([]uint64(nil), e.enc.Codes...)
	bestTotal := ps.total()
	for hop := 0; hop < 3 && ps.evals < ps.budget; hop++ {
		if err := ps.kick(); err != nil {
			return err
		}
		if err := ps.descend(); err != nil {
			return err
		}
		if t := ps.total(); t < bestTotal {
			bestTotal = t
			copy(bestCodes, e.enc.Codes)
		}
	}
	copy(e.enc.Codes, bestCodes)
	if e.tr != nil {
		obs.Emit(e.tr, obs.Event{Kind: obs.KindSpan, Stage: "exact-polish",
			DurMS: obs.MS(time.Since(t0)),
			Attrs: map[string]float64{
				"evals":  float64(ps.evals),
				"budget": float64(budget),
				"before": float64(before),
				"after":  float64(bestTotal),
				"delta":  float64(bestTotal - before),
			}})
	}
	return nil
}

// exactCubes is the exact-cost evaluator of the polish and selection
// passes: the memoized ConstraintCubes when Options.Cache is set, the
// direct minimizer otherwise. Evaluation budgets count requests, not
// minimizer runs, so a cache hit and a miss consume budget identically
// and the search trajectory is independent of the cache.
func (e *encoder) exactCubes(c face.Constraint) (int, error) {
	return e.opts.Cache.ConstraintCubesContext(e.runCtx(), e.enc, c)
}

// runCtx is the encoder's run context; encoders built outside
// EncodeContext (tests constructing the struct directly) fall back to
// the background context.
func (e *encoder) runCtx() context.Context {
	if e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}

// polishFullRescore disables the spare-move dirty-set carry so every
// candidate move re-minimizes every constraint (the reference behavior).
// The in-package parity test flips it to prove the carry is invisible:
// identical encodings, costs, and budget trajectory. Never set outside
// tests.
var polishFullRescore bool

// polishState carries the exact-polish bookkeeping.
type polishState struct {
	e        *encoder
	cost     []int
	memberOf [][]int
	spares   []uint64
	evals    int
	budget   int

	// Spare-move scan scratch, refreshed per symbol by prepareSpareScan:
	// newCost is the candidate cost vector; for each constraint, aMem
	// records whether the moving symbol is a member and sup holds the
	// members' code supercube (valid only when aMem is false).
	newCost []int
	sup     []bcube
	aMem    []bool

	// Don't-look memory (see the estimate polish): a candidate rejected
	// at commitSeq is skipped — but still charged the evals it would
	// have spent, so the budget trajectory is byte-identical — until any
	// commit bumps commitSeq. kick never skips: its evaluations rank
	// candidates rather than reject them.
	commitSeq int
	pairTried []int
	moveTried []int

	// affected/swapDelta scratch, reused across candidates.
	mark      []int
	markEpoch int
	idxBuf    []int
	swapCost  []int
}

// prepareSpareScan sizes the scan scratch and snapshots, for the symbol a
// about to be moved, each constraint's membership bit and — for the
// constraints a does not belong to — the supercube of its member codes.
// Those supercubes stay valid across the whole spare scan of a: only a's
// own code changes, and a is not a member of any constraint they describe.
func (ps *polishState) prepareSpareScan(a int) {
	r := len(ps.e.p.Constraints)
	if cap(ps.newCost) < r {
		ps.newCost = make([]int, r)
		ps.sup = make([]bcube, r)
		ps.aMem = make([]bool, r)
	}
	ps.newCost = ps.newCost[:r]
	ps.sup = ps.sup[:r]
	ps.aMem = ps.aMem[:r]
	for i, c := range ps.e.p.Constraints {
		ps.aMem[i] = c.Has(a)
		if !ps.aMem[i] {
			ps.sup[i], _ = supercubeOf(ps.e.enc, c)
		}
	}
}

func (ps *polishState) total() int {
	t := 0
	for i, k := range ps.cost {
		t += ps.e.p.Weight(i) * k
	}
	return t
}

// affected lists the constraints a swap of symbols a and b can change.
// The returned slice is scratch, valid until the next call.
func (ps *polishState) affected(a, b int) []int {
	if ps.mark == nil {
		ps.mark = make([]int, len(ps.e.p.Constraints))
	}
	ps.markEpoch++
	ps.idxBuf = ps.idxBuf[:0]
	for _, i := range ps.memberOf[a] {
		ps.mark[i] = ps.markEpoch
		ps.idxBuf = append(ps.idxBuf, i)
	}
	for _, i := range ps.memberOf[b] {
		if ps.mark[i] != ps.markEpoch {
			ps.idxBuf = append(ps.idxBuf, i)
		}
	}
	return ps.idxBuf
}

// swapDelta applies the swap and returns the exact cost change and the
// touched constraints' new costs (without committing ps.cost). The cost
// slice is scratch, valid until the next call.
func (ps *polishState) swapDelta(a, b int, idx []int) (int, []int, error) {
	ps.e.enc.Codes[a], ps.e.enc.Codes[b] = ps.e.enc.Codes[b], ps.e.enc.Codes[a]
	d := 0
	if cap(ps.swapCost) < len(idx) {
		ps.swapCost = make([]int, len(ps.e.p.Constraints))
	}
	newCost := ps.swapCost[:len(idx)]
	for j, i := range idx {
		k, err := ps.e.exactCubes(ps.e.p.Constraints[i])
		if err != nil {
			return 0, nil, err
		}
		ps.evals++
		newCost[j] = k
		d += ps.e.p.Weight(i) * (k - ps.cost[i])
	}
	return d, newCost, nil
}

// descend runs first-improvement passes over swaps and spare moves until
// a local optimum or the budget.
func (ps *polishState) descend() error {
	e := ps.e
	n := e.n
	r := len(e.p.Constraints)
	for pass := 0; pass < 8 && ps.evals < ps.budget; pass++ {
		if err := ctxutil.Check(e.runCtx(), "core.exact_polish"); err != nil {
			return err
		}
		improved := false
		for a := 0; a < n && ps.evals < ps.budget; a++ {
			ps.prepareSpareScan(a)
			for si := range ps.spares {
				if ps.evals+r > ps.budget {
					break
				}
				if ps.moveTried[a*len(ps.spares)+si] == ps.commitSeq {
					// Already rejected under this exact state; charge the
					// scan it would have cost and move on.
					ps.evals += r
					continue
				}
				old := e.enc.Codes[a]
				nw := ps.spares[si]
				e.enc.Codes[a] = nw
				d := 0
				for i := range e.p.Constraints {
					// The budget counts evaluation requests, and a carried
					// constraint charges exactly like a recomputed one, so
					// the search trajectory is independent of the carry.
					ps.evals++
					if !polishFullRescore && !ps.aMem[i] &&
						!wordInside(old, ps.sup[i]) && !wordInside(nw, ps.sup[i]) {
						// Dirty tracking: a is not a member of constraint i
						// and neither the vacated nor the occupied code lies
						// in the members' supercube. A minimum cover of the
						// members restricts to that supercube (intersecting
						// each cube with it preserves coverage and OFF-set
						// disjointness), so minterms outside it may switch
						// between OFF and don't-care freely without changing
						// the exact count — carry it forward.
						ps.newCost[i] = ps.cost[i]
						mPolishCarried.Inc()
						continue
					}
					k, err := e.exactCubes(e.p.Constraints[i])
					if err != nil {
						return err
					}
					ps.newCost[i] = k
					d += e.p.Weight(i) * (k - ps.cost[i])
				}
				if d < 0 {
					copy(ps.cost, ps.newCost)
					ps.spares[si] = old
					improved = true
					ps.commitSeq++
				} else {
					e.enc.Codes[a] = old
					ps.moveTried[a*len(ps.spares)+si] = ps.commitSeq
				}
			}
			for b := a + 1; b < n && ps.evals < ps.budget; b++ {
				idx := ps.affected(a, b)
				if len(idx) == 0 {
					continue
				}
				if ps.pairTried[a*n+b] == ps.commitSeq {
					ps.evals += len(idx)
					continue
				}
				d, newCost, err := ps.swapDelta(a, b, idx)
				if err != nil {
					return err
				}
				if d < 0 {
					for j, i := range idx {
						ps.cost[i] = newCost[j]
					}
					improved = true
					ps.commitSeq++
				} else {
					e.enc.Codes[a], e.enc.Codes[b] = e.enc.Codes[b], e.enc.Codes[a]
					ps.pairTried[a*n+b] = ps.commitSeq
				}
			}
		}
		if !improved {
			break
		}
	}
	return nil
}

// kick commits the least-damaging swap among a deterministic sample so the
// next descent explores a different basin.
func (ps *polishState) kick() error {
	e := ps.e
	if err := ctxutil.Check(e.runCtx(), "core.exact_polish"); err != nil {
		return err
	}
	n := e.n
	bestA, bestB, bestD := -1, -1, 1<<30
	var bestCost []int
	for a := 0; a < n && ps.evals < ps.budget; a++ {
		b := (a + 1 + n/2) % n
		if a == b {
			continue
		}
		idx := ps.affected(a, b)
		if len(idx) == 0 {
			continue
		}
		d, newCost, err := ps.swapDelta(a, b, idx)
		if err != nil {
			return err
		}
		// Undo; the chosen kick is re-applied below.
		e.enc.Codes[a], e.enc.Codes[b] = e.enc.Codes[b], e.enc.Codes[a]
		if d != 0 && d < bestD {
			bestA, bestB, bestD = a, b, d
			// newCost is swapDelta scratch — snapshot it.
			bestCost = append(bestCost[:0], newCost...)
		}
	}
	if bestA < 0 {
		return nil
	}
	idx := ps.affected(bestA, bestB)
	e.enc.Codes[bestA], e.enc.Codes[bestB] = e.enc.Codes[bestB], e.enc.Codes[bestA]
	for j, i := range idx {
		ps.cost[i] = bestCost[j]
	}
	ps.commitSeq++
	return nil
}

// estimateCubes is the espresso-free cost surrogate the polish pass
// minimizes: 1 for a satisfied constraint, and otherwise the better of the
// Theorem I count (when the intruders span a cube disjoint from the
// members) and a recursive-split upper bound: split the members on a
// disagreeing code column chosen to isolate intruders, and sum the halves.
func estimateCubes(enc *face.Encoding, c face.Constraint) int {
	cm := newCostModel(enc, []face.Constraint{c})
	k := cm.estimate(0)
	cm.flush()
	return k
}

// costModel evaluates the cube estimate without allocation: per-constraint
// member/non-member index lists are cached, and the split recursion
// partitions shared scratch arrays in place.
type costModel struct {
	enc     *face.Encoding
	nv      int
	mask    uint64
	members [][]int
	nonmem  [][]int
	mbuf    []uint64 // member codes scratch
	ibuf    []uint64 // intruder-candidate codes scratch
	evals   int      // estimates since the last flush (kept local: the
	// hot loops would pay for a per-call atomic)
}

// flush folds the local estimate count into the metrics registry.
func (cm *costModel) flush() {
	if cm.evals > 0 {
		mEstimates.Add(int64(cm.evals))
		cm.evals = 0
	}
}

func newCostModel(enc *face.Encoding, cons []face.Constraint) *costModel {
	cm := &costModel{enc: enc, nv: enc.NV}
	cm.mask = uint64(1)<<uint(cm.nv) - 1
	if cm.nv == 64 {
		cm.mask = ^uint64(0)
	}
	cm.members = make([][]int, len(cons))
	cm.nonmem = make([][]int, len(cons))
	for i, c := range cons {
		cm.members[i] = c.Members()
		for s := 0; s < c.N(); s++ {
			if !c.Has(s) {
				cm.nonmem[i] = append(cm.nonmem[i], s)
			}
		}
	}
	cm.mbuf = make([]uint64, enc.N())
	cm.ibuf = make([]uint64, enc.N())
	return cm
}

// estimate returns the cube estimate of constraint i under the current
// codes.
func (cm *costModel) estimate(i int) int {
	cm.evals++
	members := cm.members[i]
	if len(members) == 0 {
		return 0
	}
	m := cm.mbuf[:len(members)]
	agree := cm.mask
	vals := cm.enc.Codes[members[0]] & cm.mask
	for j, s := range members {
		code := cm.enc.Codes[s] & cm.mask
		m[j] = code
		agree &^= (vals ^ code) & cm.mask
	}
	vals &= agree
	// Intruder candidates: non-member codes inside the supercube.
	nIntr := 0
	for _, s := range cm.nonmem[i] {
		code := cm.enc.Codes[s] & cm.mask
		if (code^vals)&agree == 0 {
			cm.ibuf[nIntr] = code
			nIntr++
		}
	}
	if nIntr == 0 {
		return 1
	}
	est := cm.splitPre(m, cm.ibuf[:nIntr], agree, vals)
	// Theorem I: when the intruders span a cube containing no member
	// code, dim(super(L)) − dim(super(I)) cubes suffice.
	iAgree := cm.mask
	iVals := cm.ibuf[0]
	for _, code := range cm.ibuf[:nIntr] {
		iAgree &^= (iVals ^ code) & cm.mask
	}
	iVals &= iAgree
	ok := true
	for _, code := range m {
		if (code^iVals)&iAgree == 0 {
			ok = false
			break
		}
	}
	if ok {
		// supDim − iDim = (nv − |agree|) − (nv − |iAgree|).
		k := popcount(iAgree&cm.mask) - popcount(agree&cm.mask)
		if k >= 1 && k < est {
			est = k
		}
	}
	return est
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// splitHalf recurses into one side of a split: agree/vals describe the
// side's member supercube (computed by the parent during partitioning),
// and intr holds the intruder candidates routed to the side, not yet
// compacted against that tighter supercube.
func (cm *costModel) splitHalf(m, intr []uint64, agree, vals uint64) int {
	k := 0
	for _, code := range intr {
		if (code^vals)&agree == 0 {
			intr[k] = code
			k++
		}
	}
	return cm.splitPre(m, intr[:k], agree, vals)
}

// splitPre bounds the cubes needed to cover the member codes m while
// excluding the intruder codes intr, partitioning both slices in place.
// agree/vals must be m's supercube signature and every intr code must
// lie inside that supercube. estimate calls it directly — it has just
// derived exactly these while filtering intruder candidates, so a
// top-level recompute would be pure rework.
func (cm *costModel) splitPre(m, intr []uint64, agree, vals uint64) int {
	if len(intr) == 0 || len(m) == 1 {
		return 1
	}
	bestCol, bestScore := -1, 1<<30
	// Only the disagreeing in-mask columns can split; TrailingZeros walks
	// them in ascending order, so ties still resolve to the lowest column.
	// |2·m0 − |m|| can never beat |m| mod 2, so the scan stops at the
	// first column reaching that floor.
	opt := len(m) & 1
	for d := ^agree & cm.mask; d != 0; d &= d - 1 {
		bit := d & -d
		m0 := 0
		for _, code := range m {
			if code&bit == 0 {
				m0++
			}
		}
		balance := 2*m0 - len(m)
		if balance < 0 {
			balance = -balance
		}
		// All current intruders stay candidates on one side or the other;
		// prefer balanced splits, then low columns for determinism.
		if balance < bestScore {
			bestScore, bestCol = balance, bits.TrailingZeros64(bit)
			if bestScore <= opt {
				break
			}
		}
	}
	if bestCol < 0 {
		return len(m)
	}
	bit := uint64(1) << uint(bestCol)
	// Partition the members by the chosen column, folding each side's
	// supercube signature into the same pass so the children never
	// rescan their members.
	mi := 0
	var agL, vaL, agR, vaR uint64
	for j, x := range m {
		if x&bit == 0 {
			if mi == 0 {
				agL, vaL = cm.mask, x
			} else {
				agL &^= vaL ^ x
			}
			m[mi], m[j] = x, m[mi]
			mi++
		} else if agR == 0 && vaR == 0 {
			agR, vaR = cm.mask, x
		} else {
			agR &^= vaR ^ x
		}
	}
	vaL &= agL
	vaR &= agR
	ii := partition(intr, bit)
	// bestCol disagrees among the members, so both sides are non-empty.
	// A side with no intruder candidates, or a single member (whose
	// supercube is one point no distinct code can intrude on), is one
	// cube — skip the child call outright.
	total := 0
	if ii > 0 && mi > 1 {
		total += cm.splitHalf(m[:mi], intr[:ii], agL, vaL)
	} else {
		total++
	}
	if ii < len(intr) && len(m)-mi > 1 {
		total += cm.splitHalf(m[mi:], intr[ii:], agR, vaR)
	} else {
		total++
	}
	return total
}

// partition reorders xs so codes with the bit clear come first, returning
// the boundary index.
func partition(xs []uint64, bit uint64) int {
	i := 0
	for j, x := range xs {
		if x&bit == 0 {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	return i
}

// codesEqual reports whether two code assignments are identical.
func codesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// polish is a deterministic first-improvement hill climb over code swaps
// and moves to spare codes, minimizing the weighted cube estimate. The
// estimate of a constraint depends only on its member codes and the
// multiset of non-member codes, so a swap of two symbols can only change
// constraints having one of them as a member — the evaluation is
// incremental and never calls espresso.
func (e *encoder) polish(maxPasses int) error {
	defer tPolish.Start()()
	if err := ctxutil.Check(e.runCtx(), "core.polish"); err != nil {
		return err
	}
	if e.polishConverged && codesEqual(e.polishedCodes, e.enc.Codes) {
		// A previous polish converged at exactly these codes; re-running
		// would re-reject every candidate and change nothing.
		return nil
	}
	t0 := time.Now()
	n := e.n
	r := len(e.p.Constraints)
	cm := newCostModel(e.enc, e.p.Constraints)
	defer cm.flush()
	est := make([]int, r)
	for i := range e.p.Constraints {
		est[i] = cm.estimate(i)
	}
	weightedEst := func() int {
		t := 0
		for i, k := range est {
			t += e.p.Weight(i) * k
		}
		return t
	}
	before := 0
	if e.tr != nil {
		before = weightedEst()
	}
	// memberOf[s] lists the constraints having s as a member.
	memberOf := make([][]int, n)
	for i, c := range e.p.Constraints {
		for _, m := range c.Members() {
			memberOf[m] = append(memberOf[m], i)
		}
	}
	mask := uint64(1)<<uint(e.nv) - 1
	var spares []uint64
	used := make(map[uint64]bool, n)
	for _, c := range e.enc.Codes {
		used[c&mask] = true
	}
	for code := 0; code < 1<<uint(e.nv); code++ {
		if !used[uint64(code)] {
			spares = append(spares, uint64(code))
		}
	}
	// delta recomputes the listed constraints and returns the estimate
	// change, mutating est.
	delta := func(idx []int) int {
		d := 0
		for _, i := range idx {
			k := cm.estimate(i)
			d += e.p.Weight(i) * (k - est[i])
			est[i] = k
		}
		return d
	}
	restore := func(idx []int, saved []int) {
		for j, i := range idx {
			est[i] = saved[j]
		}
	}
	// The scan buffers are reused across every candidate swap and move:
	// mark carries an epoch stamp instead of being cleared, idxBuf holds
	// the affected-constraint list, savedBuf the estimates to restore on
	// rollback, and sup the per-constraint supercubes for the spare scan.
	// The O(n²·passes) candidate loop is the encoder's warm-path floor,
	// so it must not allocate per candidate.
	mark := make([]int, r)
	epoch := 0
	idxBuf := make([]int, 0, r)
	savedBuf := make([]int, r)
	sup := make([]bcube, r)
	// Don't-look memory: a candidate rejected at commitSeq is skipped
	// until any candidate commits (every commit bumps commitSeq). A
	// rejected evaluation has no side effects — codes and est are
	// restored — so re-evaluating it under the identical global state
	// would reject identically: skipping preserves the exact search
	// trajectory while making the final convergence passes nearly free.
	commitSeq := 1
	pairTried := make([]int, n*n)
	moveTried := make([]int, n*len(spares))
	// supOf is supercubeOf on the cached member lists, avoiding the
	// per-call Members() allocation.
	supOf := func(i int) bcube {
		var b bcube
		mem := cm.members[i]
		if len(mem) == 0 {
			return b
		}
		b.agree = mask
		b.vals = e.enc.Codes[mem[0]] & mask
		for _, m := range mem[1:] {
			b.agree &^= (b.vals ^ e.enc.Codes[m]) & mask
		}
		b.vals &= b.agree
		return b
	}
	// affectedSwap lists the constraints with a or b as a member — the
	// only ones a swap of their codes can change. memberOf lists are
	// duplicate-free, so only b's list needs the mark check.
	affectedSwap := func(a, b int) []int {
		epoch++
		idxBuf = idxBuf[:0]
		for _, i := range memberOf[a] {
			mark[i] = epoch
			idxBuf = append(idxBuf, i)
		}
		for _, i := range memberOf[b] {
			if mark[i] != epoch {
				mark[i] = epoch
				idxBuf = append(idxBuf, i)
			}
		}
		return idxBuf
	}
	passes := 0
	for pass := 0; pass < maxPasses; pass++ {
		if err := ctxutil.Check(e.runCtx(), "core.polish"); err != nil {
			return err
		}
		passes++
		improved := false
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if pairTried[a*n+b] == commitSeq {
					continue
				}
				idx := affectedSwap(a, b)
				if len(idx) == 0 {
					continue
				}
				saved := savedBuf[:len(idx)]
				for j, i := range idx {
					saved[j] = est[i]
				}
				e.enc.Codes[a], e.enc.Codes[b] = e.enc.Codes[b], e.enc.Codes[a]
				if delta(idx) < 0 {
					improved = true
					commitSeq++
				} else {
					e.enc.Codes[a], e.enc.Codes[b] = e.enc.Codes[b], e.enc.Codes[a]
					restore(idx, saved)
					pairTried[a*n+b] = commitSeq
				}
			}
			// Moves to spare codes change the non-member code multiset, so
			// they can affect a's memberships plus any constraint whose
			// supercube contains the departing or arriving code. Committing
			// a move changes only a's code, and a's member constraints are
			// listed unconditionally, so the supercubes consulted below are
			// invariant across the scan — compute them once per symbol.
			if len(spares) > 0 {
				for i := range sup {
					sup[i] = supOf(i)
				}
			}
			for si := range spares {
				if moveTried[a*len(spares)+si] == commitSeq {
					continue
				}
				epoch++
				idxBuf = idxBuf[:0]
				for _, i := range memberOf[a] {
					mark[i] = epoch
					idxBuf = append(idxBuf, i)
				}
				old := e.enc.Codes[a]
				nw := spares[si]
				for i := 0; i < r; i++ {
					if mark[i] == epoch {
						continue
					}
					if wordInside(old, sup[i]) || wordInside(nw, sup[i]) {
						idxBuf = append(idxBuf, i)
					}
				}
				idx := idxBuf
				saved := savedBuf[:len(idx)]
				for j, i := range idx {
					saved[j] = est[i]
				}
				e.enc.Codes[a] = nw
				if delta(idx) < 0 {
					spares[si] = old
					improved = true
					commitSeq++
				} else {
					e.enc.Codes[a] = old
					restore(idx, saved)
					moveTried[a*len(spares)+si] = commitSeq
				}
			}
		}
		if !improved {
			// Local optimum: every candidate was just rejected at the
			// current codes, so an immediate re-polish has nothing to do.
			e.polishConverged = true
			e.polishedCodes = append(e.polishedCodes[:0], e.enc.Codes...)
			break
		}
		e.polishConverged = false
	}
	if e.tr != nil {
		after := weightedEst()
		obs.Emit(e.tr, obs.Event{Kind: obs.KindSpan, Stage: "polish",
			DurMS: obs.MS(time.Since(t0)),
			Attrs: map[string]float64{
				"variant": float64(e.variant),
				"passes":  float64(passes),
				"before":  float64(before),
				"after":   float64(after),
				"delta":   float64(after - before),
			}})
	}
	return nil
}

// reclassifyFromScratch rebuilds every row's constraint-matrix state from
// the (possibly polished) final encoding so the reported diagnostics match
// the returned codes.
func (e *encoder) reclassifyFromScratch() {
	for _, t := range e.rows {
		t.agreeCols = t.agreeCols[:0]
		t.agreeVals = t.agreeVals[:0]
		t.satisfied = false
		t.infeasible = false
		t.unsat = t.outsiders.Clone()
		for s := 0; s < e.n; s++ {
			if t.outsiders.Has(s) {
				t.mark[s] = 0
			} else {
				t.mark[s] = -1
			}
		}
		for col := 0; col < e.nv; col++ {
			e.creditColumn(t, col)
		}
	}
}

func newTracked(members face.Constraint, kind Kind, depth, parent int, weight float64) *tracked {
	n := members.N()
	t := &tracked{
		kind:      kind,
		depth:     depth,
		parent:    parent,
		weight:    weight,
		members:   members.Clone(),
		outsiders: members.Complement(),
		mark:      make([]int, n),
	}
	t.cnt = t.members.Count()
	t.dLo = minDim(t.cnt)
	t.unsat = t.outsiders.Clone()
	for s := 0; s < n; s++ {
		if !t.outsiders.Has(s) {
			t.mark[s] = -1
		}
	}
	return t
}

// minDim returns ceil(log2 m): the smallest cube dimension that can hold m
// distinct codes.
func minDim(m int) int {
	if m <= 1 {
		return 0
	}
	return bits.Len(uint(m - 1))
}

// updateConstraints is the paper's Update_constraints: mark satisfied
// rows, Classify the infeasible ones, and add their guide-constraints.
func (e *encoder) updateConstraints(j int) {
	for ri, t := range e.rows {
		if !t.satisfied && !t.infeasible && t.unsat.Count() == 0 {
			t.satisfied = true
			if e.tr != nil {
				a := e.attrs()
				a["variant"] = float64(e.variant)
				a["row"] = float64(ri)
				a["col"] = float64(j)
				obs.Emit(e.tr, obs.Event{Kind: obs.KindEvent, Stage: "classify", Name: "satisfied", Attrs: a})
			}
		}
	}
	infeasible := e.classify(j)
	if e.opts.DisableGuides {
		return
	}
	for _, idx := range infeasible {
		e.addGuide(idx, j)
	}
}

// classify returns the indices of rows newly detected infeasible before
// generating column j. A row is infeasible when its remaining intruders
// can no longer all be excluded: no columns remain, excluding would shrink
// its cube below the capacity needed for its members, or it is not
// nv-compatible with an already-satisfied constraint (paper §3.3).
//
// This is the set-algebra fast path: intruder counts are word-parallel
// popcounts of the unsatisfied-outsider bitset, the per-row member count
// and minimum dimension are creation-time constants, and each pairwise
// compatibility check goes through the (satisfied, candidate) memo of
// compatibleFast. The scalar reference classifyGeneric lives in the
// tests, as the oracle the randomized parity suite replays against; on a
// warmed encoder one classify scan performs no heap allocation (the
// TestAllocs gate).
//
//picola:hot
func (e *encoder) classify(j int) []int {
	if e.cmpStride < len(e.rows) {
		//lint:ignore hotalloc memo grows only when guides append rows (a few times per run)
		e.growCmp()
	}
	out := e.infeasScratch[:0]
	remaining := e.nv - j
	for i, t := range e.rows {
		if t.satisfied || t.infeasible {
			continue
		}
		intr := t.unsat.Count()
		if intr == 0 {
			continue
		}
		bad := false
		switch {
		case remaining == 0:
			bad = true
		case len(t.agreeCols) >= e.nv-t.dLo:
			// Any further agreeing column (needed to exclude an intruder)
			// would make the supercube too small for the members.
			bad = true
		default:
			for si, s := range e.rows {
				if !s.satisfied || s == t {
					continue
				}
				if !e.compatibleFast(si, i, s, t) {
					bad = true
					break
				}
			}
		}
		if bad {
			t.infeasible = true
			//lint:ignore hotalloc pooled scratch: grows only to the run's infeasible high-water mark
			out = append(out, i)
			mInfeasible.Inc()
			if e.tr != nil {
				//lint:ignore hotalloc reusable attrs map: allocated once per encoder, and only when traced
				a := e.attrs()
				a["variant"] = float64(e.variant)
				a["row"] = float64(i)
				a["col"] = float64(j)
				a["intruders"] = float64(intr)
				a["depth"] = float64(t.depth)
				obs.Emit(e.tr, obs.Event{Kind: obs.KindEvent, Stage: "classify", Name: "infeasible", Attrs: a})
			}
		}
	}
	e.infeasScratch = out
	if h, m := mCmpMemoHits.Value(), mCmpMemoMisses.Value(); h+m > 0 {
		gCmpMemoRate.Set(h * 100 / (h + m))
	}
	return out
}

// attrs returns the encoder's reusable event-attrs map, cleared. One map
// serves every emission because Emit must not retain it (the obs.Tracer
// contract).
func (e *encoder) attrs() map[string]float64 {
	if e.traceAttrs == nil {
		e.traceAttrs = make(map[string]float64, 8)
	}
	clear(e.traceAttrs)
	return e.traceAttrs
}

// cmpEntry memoizes one (satisfied-row, candidate-row) compatibility
// verdict. son — the member-set intersection count — is a constant of the
// pair, computed once; the verdict additionally depends only on the two
// rows' agreeing-column counts, so it stays valid exactly while both
// recorded lengths match (including across reclassifyFromScratch, which
// rewinds them: equal inputs give equal verdicts regardless of history).
type cmpEntry struct {
	son        int32 // members intersection count; -1 until computed
	aLen, bLen int32 // agreeCols lengths at verdict time; -1 = no verdict
	ok         bool
}

// growCmp (re)sizes the pairwise memo for the current row count. Existing
// entries are dropped — they would revalidate anyway, and guide additions
// are rare (a few per run).
func (e *encoder) growCmp() {
	stride := len(e.rows) + 4 // headroom so a burst of guides rebuilds once
	e.cmp = make([]cmpEntry, stride*stride)
	for i := range e.cmp {
		e.cmp[i] = cmpEntry{son: -1, aLen: -1, bLen: -1}
	}
	e.cmpStride = stride
}

// compatibleFast is the memoized set-algebra nv-compatibility check for
// rows a (index ai, satisfied) and b (index bi, the candidate). The
// verdict is a pure function of (countA, countB, son, len(agreeColsA),
// len(agreeColsB), nv, n); all but the agree lengths are fixed at row
// creation, so a memo entry self-validates by length comparison alone.
//
//picola:hot
func (e *encoder) compatibleFast(ai, bi int, a, b *tracked) bool {
	ent := &e.cmp[ai*e.cmpStride+bi]
	if ent.son < 0 {
		ent.son = int32(a.members.IntersectCount(b.members))
	}
	if ent.aLen == int32(len(a.agreeCols)) && ent.bLen == int32(len(b.agreeCols)) {
		mCmpMemoHits.Inc()
		return ent.ok
	}
	mCmpMemoMisses.Inc()
	ent.ok = e.compatibleSet(a, b, int(ent.son))
	ent.aLen = int32(len(a.agreeCols))
	ent.bLen = int32(len(b.agreeCols))
	return ent.ok
}

// compatibleSet decides nv-compatibility (§3.3.1) between a satisfied
// constraint a and a candidate b in closed form, given their member
// intersection count son. The scalar reference (compatible, in the
// tests) scans every admissible (dimA, dimB, dimAB) triple; here the
// disjoint, identical and nested cases collapse to constant-time checks,
// and the genuinely ambiguous case (0 < son < min(cA, cB)) reduces to one
// O(nv) scan over dimAB: for a fixed dimAB every remaining condition is a
// lower bound on dimA or dimB (conditions I and II are monotone in the
// slack) or an interval constraint on their sum, so feasibility per dimAB
// is a nonempty-box test.
//
//picola:hot
func (e *encoder) compatibleSet(a, b *tracked, son int) bool {
	nv := e.nv
	cA, cB := a.cnt, b.cnt
	dALo, dAHi := a.dLo, nv-len(a.agreeCols)
	dBLo, dBHi := b.dLo, nv-len(b.agreeCols)
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
		return (1<<uint(dALo)-cA)+(1<<uint(dBLo)-cB) <= slack
	}
	switch {
	case son == cA && son == cB:
		// Identical member sets: conditions I force dimA = dimB = dimAB;
		// every other condition is then automatic. dALo == dBLo here.
		return dALo <= dBHi
	case son == cA:
		// A nested in B: dimAB = dimA < dimB, and condition II reduces to
		// slack(A) ≤ slack(B). Smallest dimA and largest dimB dominate.
		return dALo < dBHi && (1<<uint(dALo))-cA <= (1<<uint(dBHi))-cB
	case son == cB:
		return dBLo < dAHi && (1<<uint(dBLo))-cB <= (1<<uint(dAHi))-cA
	}
	union := cA + cB - son
	dimU := minDim(union)
	for dS := minDim(son); dS < dAHi && dS < dBHi; dS++ {
		slack := (1 << uint(dS)) - son
		dAmin := max(dALo, dS+1, minDim(cA+slack))
		dBmin := max(dBLo, dS+1, minDim(cB+slack))
		if dAmin > dAHi || dBmin > dBHi {
			continue
		}
		lo := max(dAmin+dBmin, dS+dimU)
		hi := min(dAHi+dBHi, dS+nv)
		if lo <= hi {
			return true
		}
	}
	return false
}

// addGuide substitutes an infeasible row by its guide-constraint: the
// group constraint on its intruder set, whose tracked dichotomies oppose
// the original members (the Theorem I condition is a cube of intruders
// disjoint from the member codes).
func (e *encoder) addGuide(idx, j int) {
	t := e.rows[idx]
	if t.depth >= e.opts.MaxGuideDepth {
		return
	}
	intr := t.intruders()
	if intr.Count() < 2 {
		// A single intruder is a 0-cube, trivially disjoint from the
		// member codes: Theorem I already applies maximally.
		return
	}
	mGuides.Inc()
	if e.tr != nil {
		obs.Emit(e.tr, obs.Event{Kind: obs.KindEvent, Stage: "guide", Name: "substitute",
			Attrs: map[string]float64{
				"variant":   float64(e.variant),
				"parent":    float64(idx),
				"col":       float64(j),
				"depth":     float64(t.depth + 1),
				"intruders": float64(intr.Count()),
				"weight":    t.weight * e.opts.GuideWeight,
			}})
	}
	g := newTracked(intr, GuideKind, t.depth+1, idx, t.weight*e.opts.GuideWeight)
	// A guide's relevant dichotomies oppose only the original members.
	g.outsiders = t.members.Clone()
	g.unsat = g.outsiders.Clone()
	for s := 0; s < e.n; s++ {
		if g.outsiders.Has(s) {
			g.mark[s] = 0
		} else {
			g.mark[s] = -1
		}
	}
	// Credit columns generated so far.
	for col := 0; col < j; col++ {
		e.creditColumn(g, col)
	}
	e.rows = append(e.rows, g)
}

// creditColumn updates one row's matrix marks and agreeing-column list for
// an already-generated column col.
func (e *encoder) creditColumn(t *tracked, col int) {
	uniform, bit := e.columnUniform(t.members, col)
	if !uniform {
		return
	}
	t.agreeCols = append(t.agreeCols, col)
	t.agreeVals = append(t.agreeVals, bit)
	for s := 0; s < e.n; s++ {
		if t.outsiders.Has(s) && t.mark[s] == 0 && e.enc.Bit(s, col) != bit {
			t.mark[s] = col + 1
			t.unsat.Remove(s)
		}
	}
}

// columnUniform reports whether all members share the same bit in an
// already-generated column, and that bit.
func (e *encoder) columnUniform(members face.Constraint, col int) (bool, int) {
	first := -1
	for s := 0; s < e.n; s++ {
		if !members.Has(s) {
			continue
		}
		b := e.enc.Bit(s, col)
		if first < 0 {
			first = b
		} else if b != first {
			return false, 0
		}
	}
	if first < 0 {
		return false, 0
	}
	return true, first
}

// apply writes the column into the encoding and updates every row's
// constraint matrix marks.
func (e *encoder) apply(col face.Constraint, j int) {
	for s := 0; s < e.n; s++ {
		b := 0
		if col.Has(s) {
			b = 1
		}
		e.enc.SetBit(s, j, b)
	}
	for _, t := range e.rows {
		e.creditColumn(t, j)
	}
}

// finalClassify settles the satisfied/infeasible status after the last
// column.
func (e *encoder) finalClassify() {
	for _, t := range e.rows {
		if t.satisfied || t.infeasible {
			continue
		}
		if t.unsatisfiedCount() == 0 {
			t.satisfied = true
		} else {
			t.infeasible = true
		}
	}
}

func (e *encoder) result() *Result {
	r := &Result{
		Encoding:      e.enc,
		Satisfied:     make([]bool, e.nOri),
		Infeasible:    make([]bool, e.nOri),
		TheoremICubes: make([]int, e.nOri),
	}
	for i := 0; i < e.nOri; i++ {
		t := e.rows[i]
		r.Satisfied[i] = t.satisfied
		r.Infeasible[i] = !t.satisfied
		if !t.satisfied {
			if k, ok := TheoremI(e.enc, e.p.Constraints[i]); ok {
				r.TheoremICubes[i] = k
			}
		}
	}
	for _, t := range e.rows[e.nOri:] {
		r.Guides = append(r.Guides, t.members.Clone())
	}
	return r
}

// TheoremI applies the paper's Theorem I to a violated constraint under a
// complete encoding: when the intruder codes' supercube contains no member
// code, the constraint is implementable with
// dim(super(L)) − dim(super(I)) product terms. It returns that count and
// whether the theorem applies.
func TheoremI(e *face.Encoding, L face.Constraint) (int, bool) {
	sup, supDim := supercubeOf(e, L)
	intr := e.Intruders(L)
	if len(intr) == 0 {
		return 1, true // satisfied: a single cube
	}
	iSet := face.FromMembers(L.N(), intr...)
	iSup, iDim := supercubeOf(e, iSet)
	// The theorem needs the intruder cube disjoint from every member code.
	for _, m := range L.Members() {
		if codeInside(e, m, iSup) {
			return 0, false
		}
	}
	_ = sup
	return supDim - iDim, true
}

// TheoremICover builds the constructive cover of Theorem I over the
// encoding's code space: for each literal of super(I) not in super(L), one
// cube equal to super(I) with that literal complemented and the remaining
// such literals freed. It returns nil, false when the theorem does not
// apply.
func TheoremICover(e *face.Encoding, L face.Constraint) (*cover.Cover, bool) {
	d := cube.BinaryInterned(e.NV)
	intr := e.Intruders(L)
	if len(intr) == 0 {
		// Satisfied constraint: its supercube is the single-cube cover.
		sup, _ := supercubeOf(e, L)
		f := cover.New(d)
		f.Add(maskedCube(d, e.NV, sup))
		return f, true
	}
	iSet := face.FromMembers(L.N(), intr...)
	iSup, _ := supercubeOf(e, iSet)
	for _, m := range L.Members() {
		if codeInside(e, m, iSup) {
			return nil, false
		}
	}
	lSup, _ := supercubeOf(e, L)
	f := cover.New(d)
	for col := 0; col < e.NV; col++ {
		if !iSup.fixed(col) || lSup.fixed(col) {
			continue // not a literal of super(I) exclusive to it
		}
		c := d.Universe()
		// Keep super(I)'s other literals that are also in super(L); set
		// this column to the complement of super(I)'s value; free the
		// remaining exclusive literals.
		for k := 0; k < e.NV; k++ {
			switch {
			case k == col:
				if iSup.val(k) == 0 {
					d.SetBinLit(c, k, cube.LitOne)
				} else {
					d.SetBinLit(c, k, cube.LitZero)
				}
			case lSup.fixed(k):
				if lSup.val(k) == 0 {
					d.SetBinLit(c, k, cube.LitZero)
				} else {
					d.SetBinLit(c, k, cube.LitOne)
				}
			}
		}
		f.Add(c)
	}
	return f, true
}

// bcube is a binary supercube summary: per column, fixed value or free.
type bcube struct {
	agree uint64 // bit set: column fixed
	vals  uint64 // fixed value per column
}

func (b bcube) fixed(col int) bool { return b.agree>>uint(col)&1 == 1 }
func (b bcube) val(col int) int    { return int(b.vals >> uint(col) & 1) }

// supercubeOf computes the supercube of the codes of set's members and its
// dimension (number of free columns).
func supercubeOf(e *face.Encoding, set face.Constraint) (bcube, int) {
	var b bcube
	members := set.Members()
	if len(members) == 0 {
		return b, 0
	}
	mask := uint64(1)<<uint(e.NV) - 1
	if e.NV == 64 {
		mask = ^uint64(0)
	}
	b.agree = mask
	b.vals = e.Codes[members[0]] & mask
	for _, m := range members[1:] {
		b.agree &^= (b.vals ^ e.Codes[m]) & mask
	}
	b.vals &= b.agree
	return b, e.NV - bits.OnesCount64(b.agree)
}

// codeInside reports whether symbol sym's code lies in the supercube b.
func codeInside(e *face.Encoding, sym int, b bcube) bool {
	return wordInside(e.Codes[sym], b)
}

// wordInside is codeInside on a raw code word: the exact-polish carry uses
// it to test codes a symbol is moving between, not just codes it holds.
func wordInside(w uint64, b bcube) bool {
	return (w^b.vals)&b.agree == 0
}

// maskedCube converts a bcube to a cube.Cube over a binary domain.
func maskedCube(d *cube.Domain, nv int, b bcube) cube.Cube {
	c := d.Universe()
	for col := 0; col < nv; col++ {
		if b.fixed(col) {
			if b.val(col) == 0 {
				d.SetBinLit(c, col, cube.LitZero)
			} else {
				d.SetBinLit(c, col, cube.LitOne)
			}
		}
	}
	return c
}
