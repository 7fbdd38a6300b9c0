package engine

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// kindOf maps a plan node onto its OpKind, or -1 for unknown
// implementations (external Plan types get no per-kind stats).
func kindOf(p Plan) OpKind {
	switch p.(type) {
	case *ScanPlan:
		return OpScan
	case *ValuesPlan:
		return OpValues
	case *WindowSourcePlan:
		return OpWindowSource
	case *FilterPlan:
		return OpFilter
	case *ProjectPlan:
		return OpProject
	case *HashJoinPlan:
		return OpHashJoin
	case *NestedLoopJoinPlan:
		return OpNestedJoin
	case *LookupJoinPlan:
		return OpLookupJoin
	case *AggregatePlan:
		return OpAggregate
	case *SortPlan:
		return OpSort
	case *DistinctPlan:
		return OpDistinct
	case *LimitPlan:
		return OpLimit
	case *UnionPlan:
		return OpUnion
	case *IndexScanPlan:
		return OpIndexScan
	}
	return -1
}

// ExplainAnalyze renders a plan tree like Explain, annotating every
// node with the observed per-operator-kind counters accumulated in
// stats: Execute calls, output rows (`obs_rows=` next to the cost
// model's `est_rows=` when est has the node, `rows=` otherwise),
// inclusive wall time, and — for row-reducing operators whose input
// cardinality is identifiable — the observed selectivity. Stats are
// tracked per operator *kind*; when a kind occurs more than once in the
// tree its counters are the aggregate over all occurrences, and the
// line says so. Nil stats render the tree alone.
//
// Subtrees the columnar kernels execute are marked [vectorized]
// (interior nodes of such a subtree run fused, so their wall time
// reports under the subtree root).
func ExplainAnalyze(p Plan, stats *ExecStats, est Estimates) string {
	kindCount := make(map[OpKind]int)
	var count func(Plan)
	count = func(p Plan) {
		if k := kindOf(p); k >= 0 {
			kindCount[k]++
		}
		for _, c := range p.Children() {
			count(c)
		}
	}
	count(p)

	var sb strings.Builder
	var rec func(p Plan, depth int, inVec bool)
	rec = func(p Plan, depth int, inVec bool) {
		vecRoot := false
		if !inVec && canVectorize(p) {
			vecRoot = true
			inVec = true
		}
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(p.String())
		k := kindOf(p)
		if k >= 0 && stats != nil {
			c := stats.Ops[k]
			fmt.Fprintf(&sb, "  calls=%d", c.Calls)
			if e, ok := est[p]; ok {
				// Estimates are per window tick; observed rows aggregate
				// over calls, so scale for an apples-to-apples column.
				perCall := e.EstRows * float64(c.Calls)
				fmt.Fprintf(&sb, " est_rows=%.0f obs_rows=%d", perCall, c.RowsOut)
			} else {
				fmt.Fprintf(&sb, " rows=%d", c.RowsOut)
			}
			// Selectivity only renders for operators that actually ran:
			// a pruned or never-ticked operator has calls=0 and rows=0,
			// and 0/0 must not leak a NaN into the output.
			if in, ok := inputRows(p, stats, kindCount); ok && in > 0 && c.Calls > 0 {
				sel := 100 * float64(c.RowsOut) / float64(in)
				if !math.IsNaN(sel) && !math.IsInf(sel, 0) {
					fmt.Fprintf(&sb, " sel=%.1f%%", sel)
				}
			}
			if c.WallNS > 0 {
				fmt.Fprintf(&sb, " time=%s", time.Duration(c.WallNS).Round(time.Microsecond))
			}
			if n := kindCount[k]; n > 1 {
				fmt.Fprintf(&sb, " (aggregated over %d %s operators)", n, k)
			}
		}
		if vecRoot {
			sb.WriteString("  [vectorized]")
		} else if inVec {
			sb.WriteString("  [vectorized, fused]")
		}
		sb.WriteByte('\n')
		for _, c := range p.Children() {
			rec(c, depth+1, inVec)
		}
	}
	rec(p, 0, false)
	return sb.String()
}

// inputRows derives the observed input cardinality of p from its
// children's output counters. Per-kind aggregation makes this
// ambiguous when p's kind or a child's kind occurs more than once in
// the tree, so it only reports when every involved kind is unique.
func inputRows(p Plan, stats *ExecStats, kindCount map[OpKind]int) (int64, bool) {
	if kindCount[kindOf(p)] != 1 {
		return 0, false
	}
	children := p.Children()
	if len(children) == 0 {
		return 0, false
	}
	var in int64
	for _, c := range children {
		k := kindOf(c)
		if k < 0 || kindCount[k] != 1 {
			return 0, false
		}
		in += stats.Ops[k].RowsOut
	}
	return in, true
}
