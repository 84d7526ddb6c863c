package exec

import (
	"errors"
	"fmt"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// ErrUnsupported is returned by a specialized strategy that cannot execute
// the query's shape (e.g. disjunctive predicates); the engine falls back to
// the generic interpreted operator, exactly as a real system falls back from
// generated code to its interpreter.
var ErrUnsupported = errors.New("exec: query shape not supported by this strategy")

// StrategyStats accumulates observability counters for one execution.
type StrategyStats struct {
	IntermediateWords int // values materialized into intermediates
	SegmentsScanned   int // segments the strategy actually read
	SegmentsPruned    int // segments skipped entirely via their zone maps
	SegmentsFaulted   int // spilled segments paged in from disk for this scan
	// DecodeSkips counts encoded blocks whose payload was never decoded:
	// either skipped outright because the block's exact min/max header
	// ruled the predicates out, or folded into aggregates from the
	// header's min/max/sum/rows statistics alone.
	DecodeSkips int
	// EncodedBytes counts the encoded payload bytes actually consumed —
	// predicate-scanned in encoded form or decoded for a fold. Comparing
	// it to the flat byte volume shows what the encoded kernels saved.
	EncodedBytes int64
	// Touched lists the indices of the segments the strategy actually read
	// (pruned and empty segments excluded), in ascending segment order —
	// the touch set behind segment-precise result caching and invalidation
	// tests. len(Touched) == SegmentsScanned.
	Touched []int
}

// touch records one actually-scanned segment.
func (st *StrategyStats) touch(si int) {
	if st == nil {
		return
	}
	st.SegmentsScanned++
	st.Touched = append(st.Touched, si)
}

// segPruned reports whether the conjunction of preds cannot match any row
// of seg, per the segment's zone maps: the whole segment is skippable when
// some term is unsatisfiable over the segment's value bounds.
func segPruned(seg *storage.Segment, preds []ColPred) bool {
	for i := range preds {
		p := &preds[i]
		if !seg.MayMatch(p.Attr, p.Op, p.Val) {
			return true
		}
	}
	return false
}

// QueryTouchesSegment reports whether executing q would read seg: false
// only when the query's conjunctive predicates are ruled out by the
// segment's zone maps. Non-splittable predicate shapes conservatively
// report true. The engine uses it to treat the triggering query's segments
// as hot during incremental reorganization. Callers checking many segments
// should split the predicate once and use SegmentTouched instead.
func QueryTouchesSegment(seg *storage.Segment, q *query.Query) bool {
	preds, splittable := SplitConjunction(q.Where)
	return SegmentTouched(seg, preds, splittable)
}

// SegmentTouched is QueryTouchesSegment with the conjunction pre-split:
// preds and splittable come from one SplitConjunction(q.Where) call hoisted
// out of the caller's per-segment loop (fingerprinting runs this check once
// per segment on every cache admission).
func SegmentTouched(seg *storage.Segment, preds []ColPred, splittable bool) bool {
	if seg.Rows == 0 {
		return false
	}
	if !splittable || len(preds) == 0 {
		return true
	}
	return !segPruned(seg, preds)
}

// limitFor returns the early-exit row target: q.Limit for shapes that
// materialize one output row per qualifying tuple, 0 (no early exit) for
// aggregates, which must consume every segment.
func limitFor(out Outputs, q *query.Query) int {
	if out.Kind == OutProjection || out.Kind == OutExpression {
		return q.Limit
	}
	return 0
}

// ExecRow executes q with the volcano-style row strategy over a single group
// g that must store every attribute the query touches: one fused scan with
// predicate push-down (paper Figure 5), a chunk of tuples at a time. It is the
// per-group kernel; the row pipeline (Exec with StrategyRow) drives it
// across a relation's segments.
func ExecRow(g *storage.ColumnGroup, q *query.Query) (*Result, error) {
	if !g.HasAll(q.AllAttrs()) {
		return nil, fmt.Errorf("exec: group %v does not cover query attributes %v", g.Attrs, q.AllAttrs())
	}
	out := Classify(q)
	if out.Kind == OutOther {
		return nil, ErrUnsupported
	}
	preds, splittable := SplitConjunction(q.Where)
	if !splittable {
		return nil, ErrUnsupported
	}
	bound, ok := BindPreds(g, preds)
	if !ok {
		return nil, fmt.Errorf("exec: predicate attributes missing from group %v", g.Attrs)
	}
	p := scanRange(g, out, bound, nil, 0, g.Rows)
	return mergePartials(out, []*partial{p}), nil
}

// mergePartials combines per-segment partials in segment order: aggregate
// accumulators merge associatively, materialized rows concatenate.
func mergePartials(out Outputs, partials []*partial) *Result {
	if out.Kind == OutGrouped {
		ga := newGroupedAcc(out)
		for _, p := range partials {
			if p.groups != nil {
				ga.mergeAcc(p.groups)
			}
		}
		return groupedResult(out, ga)
	}
	res := &Result{Cols: out.Labels}
	total := 0
	for _, p := range partials {
		total += len(p.data)
	}
	res.Data = make([]data.Value, 0, total)
	for _, p := range partials {
		res.Data = append(res.Data, p.data...)
		res.Rows += p.rows
	}
	return res
}

// columnSegPartial is the column pipeline's per-segment operator: the
// late-materialization stages over one pinned segment, emitted as that
// segment's partial.
func columnSegPartial(seg *storage.Segment, out Outputs, preds []ColPred, stats *StrategyStats) (*partial, error) {
	p := newPartial(out)
	if err := columnScanSegment(seg, out, preds, p, stats); err != nil {
		return nil, err
	}
	return p, nil
}

// newPartial returns an empty partial for out: with an accumulator for an
// aggregate output.
func newPartial(out Outputs) *partial {
	p := &partial{}
	if out.Kind == OutGrouped {
		p.groups = newGroupedAcc(out)
	}
	return p
}

// columnScanSegment runs the late-materialization pipeline over one segment,
// appending materialized rows to p or folding aggregates into its
// accumulator.
func columnScanSegment(seg *storage.Segment, out Outputs, preds []ColPred, p *partial, stats *StrategyStats) error {
	// Phase 1: predicate evaluation, one column at a time.
	var sel []int32
	haveSel := false
	for i, p := range preds {
		g, err := seg.GroupFor(p.Attr)
		if err != nil {
			return err
		}
		off, _ := g.Offset(p.Attr)
		gp := []GroupPred{{Off: off, Op: p.Op, Val: p.Val}}
		if !haveSel {
			sel = FilterGroup(g, gp, 0, seg.Rows, make([]int32, 0, seg.Rows/4+16))
			haveSel = true
			continue
		}
		// Materialize the qualifying values of the next predicate column
		// into an intermediate column, then evaluate the predicate over it —
		// the late-materialization pipeline of §2.1.
		inter := make([]data.Value, len(sel))
		GatherColumn(g, off, sel, inter)
		if stats != nil {
			stats.IntermediateWords += len(inter)
		}
		w := 0
		for j, v := range inter {
			if expr.Compare(p.Op, v, p.Val) {
				sel[w] = sel[j]
				w++
			}
		}
		sel = sel[:w]
		_ = i
	}

	// Phase 2: compute outputs.
	switch out.Kind {
	case OutGrouped:
		return foldGroupedSel(seg, out, p.groups, sel, haveSel, true, stats)

	case OutProjection:
		cols, n, err := gatherOutputColumns(seg, out.ProjAttrs, sel, haveSel, stats)
		if err != nil {
			return err
		}
		// Tuple reconstruction: stitch the intermediate columns row-major.
		w := len(cols)
		base := len(p.data)
		p.data = append(p.data, make([]data.Value, n*w)...)
		for j, col := range cols {
			for i, v := range col {
				p.data[base+i*w+j] = v
			}
		}
		p.rows += n
		return nil

	case OutExpression:
		cols, n, err := gatherOutputColumns(seg, out.ExprAttrs, sel, haveSel, stats)
		if err != nil {
			return err
		}
		// Pairwise materialization (§3.3): a+b+c produces an intermediate
		// column per addition. A single arena backs all intermediates — the
		// strategy's cost is the materialization *traffic*, not allocator
		// churn.
		final := cols[0]
		if len(cols) > 1 {
			arena := make([]data.Value, (len(cols)-1)*n)
			acc := cols[0]
			for step, next := range cols[1:] {
				inter := arena[step*n : (step+1)*n]
				for i := range inter {
					inter[i] = acc[i] + next[i]
				}
				acc = inter
			}
			final = acc
			if stats != nil {
				stats.IntermediateWords += (len(cols) - 1) * n
			}
		}
		p.data = append(p.data, final...)
		p.rows += n
		return nil
	}
	return ErrUnsupported
}

// gatherOutputColumns materializes one intermediate column per needed
// attribute of one segment, filtered through sel when haveSel is true. All
// columns share a single arena allocation.
func gatherOutputColumns(seg *storage.Segment, attrs []data.AttrID, sel []int32, haveSel bool, stats *StrategyStats) ([][]data.Value, int, error) {
	n := seg.Rows
	if haveSel {
		n = len(sel)
	}
	arena := make([]data.Value, len(attrs)*n)
	cols := make([][]data.Value, len(attrs))
	for i, a := range attrs {
		g, err := seg.GroupFor(a)
		if err != nil {
			return nil, 0, err
		}
		off, _ := g.Offset(a)
		col := arena[i*n : (i+1)*n]
		if haveSel {
			GatherColumn(g, off, sel, col)
		} else {
			d, stride := g.Data, g.Stride
			idx := off
			for r := 0; r < n; r++ {
				col[r] = d[idx]
				idx += stride
			}
		}
		if stats != nil {
			stats.IntermediateWords += n
		}
		cols[i] = col
	}
	return cols, n, nil
}

// hybridSegPartial is the hybrid pipeline's per-segment operator: the
// multi-group selection-vector stages over one pinned segment, emitted as
// that segment's partial. The reorg pipeline reuses it for cold segments
// (with nil stats — intermediate accounting belongs to the cost-compared
// strategies).
func hybridSegPartial(seg *storage.Segment, q *query.Query, out Outputs, preds []ColPred, stats *StrategyStats) (*partial, error) {
	_, assign, err := seg.CoveringGroups(q.AllAttrs())
	if err != nil {
		return nil, err
	}
	p := newPartial(out)

	// Predicates sharing a group evaluate in one pass, groups in first-seen
	// order, so the most-selective-first heuristics of the caller are honored.
	var sel []int32
	haveSel := len(preds) > 0
	if haveSel {
		sel = bindGroupFilter(assign, preds).sel(0, seg.Rows, nil)
		if stats != nil {
			stats.IntermediateWords += len(sel) / 2 // int32 ids, in words
		}
	}

	switch out.Kind {
	case OutGrouped:
		if err := foldGroupedSel(seg, out, p.groups, sel, haveSel, false, nil); err != nil {
			return nil, err
		}
		return p, nil

	case OutProjection:
		n := seg.Rows
		if haveSel {
			n = len(sel)
		}
		w := len(out.ProjAttrs)
		p.data = make([]data.Value, n*w)
		for j, a := range out.ProjAttrs {
			g := assign[a]
			off, _ := g.Offset(a)
			d, stride := g.Data, g.Stride
			if haveSel {
				for i, r := range sel {
					p.data[i*w+j] = d[int(r)*stride+off]
				}
			} else {
				for r := 0; r < n; r++ {
					p.data[r*w+j] = d[r*stride+off]
				}
			}
		}
		p.rows = n
		return p, nil

	case OutExpression:
		n := seg.Rows
		if haveSel {
			n = len(sel)
		}
		acc := make([]data.Value, n)
		// Partial sums per group: each group contributes its share of the
		// expression in one fused pass — no per-pair intermediates.
		perGroup := map[*storage.ColumnGroup][]int{}
		var order []*storage.ColumnGroup
		for _, a := range out.ExprAttrs {
			g := assign[a]
			off, _ := g.Offset(a)
			if _, seen := perGroup[g]; !seen {
				order = append(order, g)
			}
			perGroup[g] = append(perGroup[g], off)
		}
		tmp := make([]data.Value, n)
		for _, g := range order {
			offs := perGroup[g]
			if haveSel {
				SumOffsetsSel(g, offs, sel, tmp)
			} else {
				SumOffsetsAll(g, offs, tmp)
			}
			for i := range acc {
				acc[i] += tmp[i]
			}
		}
		p.data, p.rows = acc, n
		return p, nil
	}
	return nil, ErrUnsupported
}

// genericSegmentScan is the per-segment body of the generic interpreter
// for row outputs: a tuple-at-a-time loop over one pinned segment,
// evaluating the predicate tree and select expressions through
// per-attribute accessor indirection and appending every qualifying row's
// outputs to p. Aggregate outputs fold through genericGroupedSegmentScan.
func genericSegmentScan(seg *storage.Segment, q *query.Query, p *partial) error {
	f, err := segmentFolder(seg, q.AllAttrs(), Outputs{})
	if err != nil {
		return err
	}
	for f.row = 0; f.row < seg.Rows; f.row++ {
		if q.Where != nil && !q.Where.EvalBool(f.get) {
			continue
		}
		for _, it := range q.Items {
			p.data = append(p.data, it.Expr.Eval(f.get))
		}
		p.rows++
	}
	return nil
}

func mustOffsets(g *storage.ColumnGroup, attrs []data.AttrID) []int {
	offs := make([]int, len(attrs))
	for i, a := range attrs {
		off, ok := g.Offset(a)
		if !ok {
			panic(fmt.Sprintf("exec: attribute %d not in group %v", a, g.Attrs))
		}
		offs[i] = off
	}
	return offs
}
