package exec

import (
	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// vectorSegPartial is the vectorized pipeline's per-segment operator: the
// chunked stages over one pinned segment, emitted as that segment's
// partial. The L1-resident scratch vectors are allocated here — shared by
// the segment's chunks, private to the task, so segment fan-out is
// race-free.
func vectorSegPartial(seg *storage.Segment, q *query.Query, out Outputs, preds []ColPred, vectorSize int, stats *StrategyStats) (*partial, error) {
	sel := make([]int32, 0, vectorSize)
	acc := make([]data.Value, vectorSize)
	tmp := make([]data.Value, vectorSize)
	states := newStates(out)
	var ga *groupedAcc
	if out.Kind == OutGrouped {
		ga = newGroupedAcc(out)
	}
	res := &Result{}
	if err := vectorScanSegment(seg, q, out, preds, vectorSize, sel, acc, tmp, states, res, ga, stats); err != nil {
		return nil, err
	}
	return &partial{states: states, data: res.Data, rows: res.Rows, groups: ga}, nil
}

// vectorScanSegment runs the chunked pipeline over one segment, binding
// predicates and outputs to that segment's own groups.
func vectorScanSegment(seg *storage.Segment, q *query.Query, out Outputs, preds []ColPred, vectorSize int, sel []int32, acc, tmp []data.Value, aggStates []*expr.AggState, res *Result, ga *groupedAcc, stats *StrategyStats) error {
	_, assign, err := seg.CoveringGroups(q.AllAttrs())
	if err != nil {
		return err
	}
	var folder *groupedFolder
	if out.Kind == OutGrouped {
		folder, err = segmentFolder(seg, groupedScanAttrs(out), out)
		if err != nil {
			return err
		}
	}

	filter := bindGroupFilter(assign, preds)
	haveSel := len(filter) > 0

	// Output plan.
	type colRef struct {
		g   *storage.ColumnGroup
		off int
	}
	var projRefs []colRef
	var aggRefs []colRef
	var exprGroups []*storage.ColumnGroup
	exprOffs := map[*storage.ColumnGroup][]int{}
	switch out.Kind {
	case OutProjection:
		for _, a := range out.ProjAttrs {
			g := assign[a]
			off, _ := g.Offset(a)
			projRefs = append(projRefs, colRef{g, off})
		}
	case OutAggregates:
		for _, a := range out.AggAttrs {
			g := assign[a]
			off, _ := g.Offset(a)
			aggRefs = append(aggRefs, colRef{g, off})
		}
	case OutExpression, OutAggExpression:
		for _, a := range out.ExprAttrs {
			g := assign[a]
			off, _ := g.Offset(a)
			if _, seen := exprOffs[g]; !seen {
				exprGroups = append(exprGroups, g)
			}
			exprOffs[g] = append(exprOffs[g], off)
		}
	}

	for start := 0; start < seg.Rows; start += vectorSize {
		n := vectorSize
		if start+n > seg.Rows {
			n = seg.Rows - start
		}
		// Predicate phase for this chunk.
		sel = sel[:0]
		if haveSel {
			sel = filter.sel(start, n, sel)
			if stats != nil {
				stats.IntermediateWords += len(sel) / 2
			}
			if len(sel) == 0 {
				continue
			}
		}

		switch out.Kind {
		case OutAggregates:
			for i, ref := range aggRefs {
				if haveSel {
					foldSel(aggStates[i], ref.g, ref.off, sel)
				} else {
					foldRange(aggStates[i], ref.g, ref.off, start, n)
				}
			}
		case OutGrouped:
			if haveSel {
				folder.foldSel(ga, sel)
			} else {
				folder.foldRange(ga, start, start+n)
			}
		case OutProjection:
			if haveSel {
				for _, r := range sel {
					for _, ref := range projRefs {
						res.Data = append(res.Data, ref.g.Data[int(r)*ref.g.Stride+ref.off])
					}
				}
				res.Rows += len(sel)
			} else {
				for r := start; r < start+n; r++ {
					for _, ref := range projRefs {
						res.Data = append(res.Data, ref.g.Data[r*ref.g.Stride+ref.off])
					}
				}
				res.Rows += n
			}
		case OutExpression, OutAggExpression:
			cnt := n
			if haveSel {
				cnt = len(sel)
			}
			av := acc[:cnt]
			for i := range av {
				av[i] = 0
			}
			for _, g := range exprGroups {
				offs := exprOffs[g]
				tv := tmp[:cnt]
				if haveSel {
					SumOffsetsSel(g, offs, sel, tv)
				} else {
					sumOffsetsRange(g, offs, start, n, tv)
				}
				for i := range av {
					av[i] += tv[i]
				}
			}
			if out.Kind == OutExpression {
				res.Data = append(res.Data, av...)
				res.Rows += cnt
			} else {
				for _, v := range av {
					aggStates[0].Add(v)
				}
			}
		}
	}
	return nil
}

// foldRange folds rows [start, start+n) of the attribute at off into st.
func foldRange(st *expr.AggState, g *storage.ColumnGroup, off, start, n int) {
	d, stride := g.Data, g.Stride
	idx := start*stride + off
	for i := 0; i < n; i++ {
		st.Add(d[idx])
		idx += stride
	}
}

// foldSel folds the selected rows of the attribute at off into st.
func foldSel(st *expr.AggState, g *storage.ColumnGroup, off int, sel []int32) {
	d, stride := g.Data, g.Stride
	for _, r := range sel {
		st.Add(d[int(r)*stride+off])
	}
}

// sumOffsetsRange computes the offset-sum expression for rows
// [start, start+n) into out.
func sumOffsetsRange(g *storage.ColumnGroup, offs []int, start, n int, out []data.Value) {
	d, stride := g.Data, g.Stride
	base := start * stride
	for i := 0; i < n; i++ {
		var acc data.Value
		for _, o := range offs {
			acc += d[base+o]
		}
		out[i] = acc
		base += stride
	}
}
