package exec

import (
	"h2o/internal/costmodel"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// Strategy identifies one of H2O's execution strategies.
type Strategy int

const (
	// StrategyRow is the volcano-style fused single-group scan.
	StrategyRow Strategy = iota
	// StrategyColumn is column-at-a-time late materialization.
	StrategyColumn
	// StrategyHybrid is the multi-group selection-vector strategy.
	StrategyHybrid
	// StrategyGeneric is the interpreted fallback operator.
	StrategyGeneric
	// StrategyReorg fuses layout creation with query answering.
	StrategyReorg
	// StrategyDelta answers a repairable aggregate query by rescanning only
	// the segments that changed since its partials were cached, merging with
	// the retained cold-segment partials (ExecDelta). The serving layer
	// reports it on delta-repaired queries; the cost-based chooser never
	// selects it directly.
	StrategyDelta
	// StrategyEncoded answers aggregate-shaped queries and projections
	// directly over the per-column encoded blocks of sealed segments: block
	// headers skip or fold whole blocks without decoding, projections
	// decode only their output columns in blocks with survivors, and
	// spilled segments fault in only their compact encoded form. The serving layer uses it on
	// encoded-tier relations; the cost-based chooser never selects it
	// directly.
	StrategyEncoded
	// StrategyVectorized named a chunked variant of StrategyHybrid. Every
	// aggregate now folds one VectorSize chunk at a time on every
	// strategy, so it has no pipeline, and Exec rejects it. The constant
	// and its String name stay because the metric names
	// exec.strategy_share.<name> are built by looping over the constants
	// from StrategyRow to StrategyJoin.
	StrategyVectorized
	// StrategyBitmap named StrategyHybrid's aggregate path with
	// bit-vectors instead of selection vectors. It has no pipeline, and
	// Exec rejects it; the constant stays for the metric names, as
	// StrategyVectorized does.
	StrategyBitmap
	// StrategyJoin is the streaming hash-join operator (ExecJoin): the
	// greedily chosen build side folds into a hash table segment-at-a-time,
	// the probe side streams through the standard pipeline. It spans two
	// relations, so it lives outside the single-relation registry and the
	// cost-based chooser; the facade reports it on join executions.
	StrategyJoin
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyRow:
		return "row-fused"
	case StrategyColumn:
		return "column-late"
	case StrategyHybrid:
		return "hybrid-groups"
	case StrategyGeneric:
		return "generic"
	case StrategyReorg:
		return "online-reorg"
	case StrategyDelta:
		return "delta-repair"
	case StrategyEncoded:
		return "encoded-direct"
	case StrategyVectorized:
		return "vectorized"
	case StrategyBitmap:
		return "bitmap"
	case StrategyJoin:
		return "hash-join"
	default:
		return "unknown"
	}
}

// AccessPlan builds the cost-model descriptors (one costmodel.GroupAccess
// per layout the plan touches, the terms of Eq. 2) for executing q on rel
// with the given strategy. estSel is the engine's selectivity estimate for
// the query's predicates; it only matters for ranking.
//
// Costing is segment-aware: a relation whose segments share one layout is
// costed once at full row count (identical to costing each segment and
// summing, since every term is linear in rows); a mixed-layout relation is
// costed segment by segment so a plan that is cheap on the three
// reorganized segments and expensive on the rest prices correctly.
//
// The returned slice is nil when the strategy cannot run the query on the
// relation's current groups (e.g. StrategyRow without a covering group in
// every segment).
func AccessPlan(s Strategy, rel *storage.Relation, q *query.Query, estSel float64) []costmodel.GroupAccess {
	if rel.Uniform() {
		return segAccessPlan(s, rel.Segments[0], rel.Rows, q, estSel)
	}
	var accesses []costmodel.GroupAccess
	for _, seg := range rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		sub := segAccessPlan(s, seg, seg.Rows, q, estSel)
		if sub == nil {
			return nil
		}
		accesses = append(accesses, sub...)
	}
	return accesses
}

// segPlanFunc costs one segment's layout under one strategy, scaled to
// rows tuples. Each costed strategy registers one in the strategies
// registry (exec.go), which is segAccessPlan's dispatch table.
type segPlanFunc func(seg *storage.Segment, rows int, q *query.Query, estSel float64) []costmodel.GroupAccess

// segAccessPlan costs one segment's layout, scaled to rows tuples, by
// dispatching to the strategy's registered segPlan. Strategies without
// one (reorg, delta, encoded, and those without a registry row) are never
// costed.
func segAccessPlan(s Strategy, seg *storage.Segment, rows int, q *query.Query, estSel float64) []costmodel.GroupAccess {
	e, ok := strategies[s]
	if !ok || e.segPlan == nil {
		return nil
	}
	if q.Where == nil {
		estSel = 1
	}
	return e.segPlan(seg, rows, q, estSel)
}

// rowSegPlan costs the fused row strategy: one fused pass over the single
// covering group; no intermediates.
func rowSegPlan(seg *storage.Segment, rows int, q *query.Query, estSel float64) []costmodel.GroupAccess {
	g := bestCoveringGroupSeg(seg, q)
	if g == nil {
		return nil
	}
	return []costmodel.GroupAccess{{
		Stride: g.Stride, Width: g.Width, Used: len(q.AllAttrs()), Rows: rows,
		Selectivity: 1, // predicate push-down scans every tuple
	}}
}

// columnSegPlan costs late materialization: one access per distinct
// attribute's column, plus intermediate columns for gathered outputs and
// refined predicates.
func columnSegPlan(seg *storage.Segment, rows int, q *query.Query, estSel float64) []costmodel.GroupAccess {
	var accesses []costmodel.GroupAccess
	where := q.WhereAttrs()
	sel := q.SelectAttrs()
	for i, a := range where {
		g, err := seg.GroupFor(a)
		if err != nil {
			return nil
		}
		scanSel := 1.0
		inter := 0
		if i > 0 {
			scanSel = estSel // later predicates probe through the vector
			inter = int(float64(rows) * estSel)
		} else {
			inter = int(float64(rows) * estSel / 2) // selection vector (int32)
		}
		accesses = append(accesses, costmodel.GroupAccess{
			Stride: g.Stride, Width: g.Width, Used: 1, Rows: rows,
			Selectivity: scanSel, IntermediateWords: inter,
		})
	}
	out := Classify(q)
	outSel := estSel
	if len(where) == 0 {
		outSel = 1
	}
	for _, a := range sel {
		g, err := seg.GroupFor(a)
		if err != nil {
			return nil
		}
		inter := 0
		if !scalarColumns(out) {
			// Projections, expressions and aggregates of expressions
			// or by group materialize a full intermediate column per
			// attribute.
			inter = int(float64(rows) * outSel)
		}
		accesses = append(accesses, costmodel.GroupAccess{
			Stride: g.Stride, Width: g.Width, Used: 1, Rows: rows,
			Selectivity: outSel, IntermediateWords: inter,
		})
	}
	return accesses
}

// hybridSegPlan costs the multi-group selection-vector strategy.
func hybridSegPlan(seg *storage.Segment, rows int, q *query.Query, estSel float64) []costmodel.GroupAccess {
	all := q.AllAttrs()
	groups, assign, err := seg.CoveringGroups(all)
	if err != nil {
		return nil
	}
	where := q.WhereAttrs()
	out := Classify(q)
	outSel := estSel
	if len(where) == 0 {
		outSel = 1
	}
	firstPredGroup := -1
	if len(where) > 0 {
		for i, g := range groups {
			if g == assign[where[0]] {
				firstPredGroup = i
				break
			}
		}
	}
	var accesses []costmodel.GroupAccess
	for i, g := range groups {
		used := 0
		for _, a := range all {
			if assign[a] == g {
				used++
			}
		}
		scanSel := estSel
		inter := 0
		if len(where) == 0 {
			scanSel = 1
		} else if i == firstPredGroup {
			scanSel = 1 // the filtering group is fully scanned
			inter = int(float64(rows) * estSel / 2)
		}
		// Expression outputs accumulate per-group partial sums through a
		// temporary vector: two extra full-length passes per contributing
		// group. A single fused group (StrategyRow) avoids this — that is
		// the gap that makes merged groups worth creating.
		if out.Kind == OutExpression || scalarSum(out) {
			inter += 2 * int(float64(rows)*outSel)
		}
		accesses = append(accesses, costmodel.GroupAccess{
			Stride: g.Stride, Width: g.Width, Used: used, Rows: rows,
			Selectivity: scanSel, IntermediateWords: inter,
		})
	}
	return accesses
}

// genericSegPlan costs the interpreted operator: same data traffic as
// hybrid, plus an interpretation overhead that the model charges as extra
// per-word compute (about 6x, matching the measured gap between
// interpreted and compiled operators).
func genericSegPlan(seg *storage.Segment, rows int, q *query.Query, estSel float64) []costmodel.GroupAccess {
	accesses := hybridSegPlan(seg, rows, q, estSel)
	for i := range accesses {
		accesses[i].IntermediateWords += accesses[i].Rows * accesses[i].Used / 2
	}
	return accesses
}

// scalarColumns reports whether out is a scalar aggregate of bare columns
// (select max(a), sum(b), ...): late materialization folds each straight
// from its column, with no intermediate.
func scalarColumns(out Outputs) bool {
	if out.Kind != OutGrouped || len(out.GroupBy) > 0 {
		return false
	}
	for _, e := range out.GroupArgs {
		if _, ok := e.(*expr.Col); !ok {
			return false
		}
	}
	return true
}

// scalarSum reports whether out is one scalar aggregate of a sum of
// columns (select sum(a+b+c), §4.1's mix), which the hybrid strategy
// builds through per-group temporaries like an expression.
func scalarSum(out Outputs) bool {
	if out.Kind != OutGrouped || len(out.GroupBy) > 0 || len(out.GroupArgs) != 1 {
		return false
	}
	if _, ok := out.GroupArgs[0].(*expr.Col); ok {
		return false
	}
	_, ok := SumLeaves(out.GroupArgs[0])
	return ok
}

// bestCoveringGroupSeg returns the narrowest single group of seg covering
// every attribute of q, or nil.
func bestCoveringGroupSeg(seg *storage.Segment, q *query.Query) *storage.ColumnGroup {
	all := q.AllAttrs()
	var best *storage.ColumnGroup
	for _, g := range seg.Groups {
		if g.HasAll(all) && (best == nil || g.Width < best.Width) {
			best = g
		}
	}
	return best
}

// RowCovered reports whether every segment of rel has a single group
// covering all of q's attributes — the precondition of the fused row
// strategy (segments may satisfy it with different groups).
func RowCovered(rel *storage.Relation, q *query.Query) bool {
	for _, seg := range rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		if bestCoveringGroupSeg(seg, q) == nil {
			return false
		}
	}
	return true
}
