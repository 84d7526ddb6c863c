package exec

import (
	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/storage"
)

// Online reorganization (Exec with StrategyReorg) answers q while
// materializing new segment-local column groups over ExecOpts.ReorgAttrs
// in the same pass — the paper's online data reorganization (§3.2):
// "blocks from R1 and R2 are read and stitched together ... then, for
// each new tuple, the predicates in the where clause are evaluated and if
// the tuple qualifies the arithmetic expression in the select is
// computed. The early materialization strategy allows H2O to generate the
// data layout and compute the query result without scanning the relation
// twice."
//
// Reorganization is *incremental*: only segments for which HotMask[si] is
// true (nil mask means every segment) are stitched; the remaining
// segments answer the query from their existing layout — pruned entirely
// when their zone maps rule the predicates out — and keep that layout, so
// a single call costs O(hot segments), not O(relation). ExecOpts.NewGroups
// receives one new group per segment (nil entries for segments left
// untouched); the caller (the Data Layout Manager) registers them with
// the matching segments. ReorgAttrs must cover every attribute the query
// touches.

// reorgScanSegment stitches one segment's new group while answering the
// query over the freshly built mini-tuples — the fused copy-and-evaluate
// loop of Fig. 13, at segment granularity. Aggregates fold into the shared
// states; materialized rows append to res in segment order.
func reorgScanSegment(seg *storage.Segment, out Outputs, preds []ColPred, norm []data.AttrID, states []*expr.AggState, res *Result, ga *groupedAcc) (*storage.ColumnGroup, error) {
	_, assign, err := seg.CoveringGroups(norm)
	if err != nil {
		return nil, err
	}
	dst := storage.NewGroup(norm, seg.Rows)

	// Source copy plan: for each destination offset, the source buffer,
	// stride and offset to read from.
	type srcRef struct {
		d      []data.Value
		stride int
		off    int
	}
	srcs := make([]srcRef, dst.Width)
	for i, a := range dst.Attrs {
		g := assign[a]
		off, _ := g.Offset(a)
		srcs[i] = srcRef{d: g.Data, stride: g.Stride, off: off}
	}

	bound, _ := BindPreds(dst, preds)

	// Output plan against the destination group.
	var projOffs, exprOffs, aggOffs []int
	var gf *groupedFolder
	switch out.Kind {
	case OutProjection:
		projOffs = mustOffsets(dst, out.ProjAttrs)
	case OutAggregates:
		aggOffs = mustOffsets(dst, out.AggAttrs)
	case OutExpression, OutAggExpression:
		exprOffs = mustOffsets(dst, out.ExprAttrs)
	case OutGrouped:
		gf = columnGroupFolder(dst, out)
	}

	dd, dStride := dst.Data, dst.Stride
	base := 0
	for r := 0; r < seg.Rows; r++ {
		// Stitch: materialize the new mini-tuple.
		for i := range srcs {
			s := &srcs[i]
			dd[base+i] = s.d[r*s.stride+s.off]
		}
		// Answer: evaluate the query against the freshly built tuple.
		if passes(dd, base, bound) {
			switch out.Kind {
			case OutProjection:
				for _, o := range projOffs {
					res.Data = append(res.Data, dd[base+o])
				}
				res.Rows++
			case OutAggregates:
				for i, o := range aggOffs {
					states[i].Add(dd[base+o])
				}
			case OutExpression:
				var acc data.Value
				for _, o := range exprOffs {
					acc += dd[base+o]
				}
				res.Data = append(res.Data, acc)
				res.Rows++
			case OutAggExpression:
				var acc data.Value
				for _, o := range exprOffs {
					acc += dd[base+o]
				}
				states[0].Add(acc)
			case OutGrouped:
				gf.push(ga, r)
			}
		}
		base += dStride
	}
	if gf != nil {
		gf.flush(ga)
	}
	dst.BuildZones(0)
	return dst, nil
}

func newStates(out Outputs) []*expr.AggState {
	switch out.Kind {
	case OutAggregates:
		states := make([]*expr.AggState, len(out.AggOps))
		for i, op := range out.AggOps {
			states[i] = expr.NewAggState(op)
		}
		return states
	case OutAggExpression:
		return []*expr.AggState{expr.NewAggState(out.ExprAgg)}
	default:
		return nil
	}
}
