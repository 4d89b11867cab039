package covering

import "math/bits"

// Solver64 is Solver for instances of at most 64 rows, count only. Each
// column is one uint64 row mask and the uncovered set travels down the
// recursion by value, so a node costs a trailing-zero count and one
// AND-NOT per branch instead of counter updates over the column's rows.
//
// The search is Solver's, node for node: the same greedy incumbent, the
// same branching row, the same column order, the same budget cut. A row's
// column list never changes, so Solver's "uncovered row with the fewest
// columns, ties to the lowest index" is the first uncovered row in a
// (len, index) order fixed up front; Count renumbers the rows into that
// order, making the pick the lowest set bit of the uncovered mask. The
// count therefore equals len(Solver.Solve(...)) even when the budget runs
// out, and Nodes equals Solver.Nodes.
//
// A Solver64 is not safe for concurrent use; its buffers persist across
// calls, so a warmed instance counts without heap allocation.
type Solver64 struct {
	cols  []uint64 // column masks over the renumbered rows
	list  []int32  // each row's columns, ascending, flattened by rank
	off   [65]int32
	cnt   [64]int32 // columns per row, by original row index
	order [64]uint8 // original row index by rank
	rank  [64]uint8

	maxNodes, nodes, best int
}

// Count returns the minimum number of columns covering every row, exactly
// as len(Solver.Solve(rowCols, len(cols), opts...)) for the instance
// whose column c covers the rows set in cols[c] — row r is bit r, and the
// rows are the union of the columns. cols is not retained.
//
//picola:hot
func (s *Solver64) Count(cols []uint64, opts ...Options) int {
	s.maxNodes = 5_000_000
	if len(opts) > 0 && opts[0].MaxNodes != 0 {
		s.maxNodes = opts[0].MaxNodes
	}
	var rows uint64
	s.cnt = [64]int32{}
	total := 0
	for _, m := range cols {
		rows |= m
		total += bits.OnesCount64(m)
		for ; m != 0; m &= m - 1 {
			s.cnt[bits.TrailingZeros64(m)]++
		}
	}
	// Rank the rows by (column count, index): an insertion sort over at
	// most 64 rows fed in index order, so equal counts keep index order.
	nr := 0
	for m := rows; m != 0; m &= m - 1 {
		r := uint8(bits.TrailingZeros64(m))
		i := nr
		for ; i > 0 && s.cnt[s.order[i-1]] > s.cnt[r]; i-- {
			s.order[i] = s.order[i-1]
		}
		s.order[i] = r
		nr++
	}
	s.off[0] = 0
	for i := 0; i < nr; i++ {
		s.rank[s.order[i]] = uint8(i)
		s.off[i+1] = s.off[i] + s.cnt[s.order[i]]
	}
	if cap(s.list) < total {
		s.list = make([]int32, total)
	}
	s.list = s.list[:total]
	if cap(s.cols) < len(cols) {
		s.cols = make([]uint64, len(cols))
	}
	s.cols = s.cols[:len(cols)]
	var fill [64]int32
	copy(fill[:nr], s.off[:nr])
	for c, m := range cols {
		var p uint64
		for ; m != 0; m &= m - 1 {
			k := s.rank[bits.TrailingZeros64(m)]
			p |= 1 << k
			s.list[fill[k]] = int32(c)
			fill[k]++
		}
		s.cols[c] = p
	}
	all := uint64(0)
	if nr > 0 {
		all = ^uint64(0) >> uint(64-nr)
	}
	s.best = s.greedy(all)
	s.nodes = 0
	s.dfs(all, 0)
	return s.best
}

// Nodes returns the search nodes the last Count visited, budget-cut
// visits included — the figure Solver.Nodes reports for the same
// instance.
func (s *Solver64) Nodes() int { return s.nodes }

// greedy is Solver.greedy's incumbent size: repeatedly take the column
// covering the most uncovered rows, ties to the lowest index.
//
//picola:hot
func (s *Solver64) greedy(left uint64) int {
	n := 0
	for left != 0 {
		// Some column meets left: the rows are the union of the columns.
		bestC, bestGain := 0, 0
		for c, m := range s.cols {
			if g := bits.OnesCount64(m & left); g > bestGain {
				bestC, bestGain = c, g
			}
		}
		n++
		left &^= s.cols[bestC]
	}
	return n
}

//picola:hot
func (s *Solver64) dfs(left uint64, depth int) {
	s.nodes++
	if s.nodes > s.maxNodes {
		return
	}
	if left == 0 {
		if depth < s.best {
			s.best = depth
		}
		return
	}
	if depth+1 >= s.best {
		return
	}
	r := bits.TrailingZeros64(left)
	for _, c := range s.list[s.off[r]:s.off[r+1]] {
		s.dfs(left&^s.cols[c], depth+1)
	}
}
