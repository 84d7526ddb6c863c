package exec

import (
	"h2o/internal/data"
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
// loop of Fig. 13, at segment granularity. Materialized rows append to p
// in segment order; aggregates fold into p's accumulator.
func reorgScanSegment(seg *storage.Segment, out Outputs, preds []ColPred, norm []data.AttrID, p *partial) (*storage.ColumnGroup, error) {
	_, assign, err := seg.CoveringGroups(norm)
	if err != nil {
		return nil, err
	}
	dst := storage.NewGroup(norm, seg.Rows)

	// Source copy plan: for each destination offset, the binding to read
	// from.
	srcs := make([]colBinding, dst.Width)
	for i, a := range dst.Attrs {
		srcs[i] = bindingOf(assign[a], a)
	}

	bound, _ := BindPreds(dst, preds)

	// Output plan against the destination group.
	var projOffs, exprOffs []int
	var gf *groupedFolder
	switch out.Kind {
	case OutProjection:
		projOffs = mustOffsets(dst, out.ProjAttrs)
	case OutExpression:
		exprOffs = mustOffsets(dst, out.ExprAttrs)
	case OutGrouped:
		gf = columnGroupFolder(dst, out)
	}

	dd, dStride := dst.Data, dst.Stride
	base := 0
	for r := 0; r < seg.Rows; r++ {
		// Stitch: materialize the new mini-tuple.
		for i := range srcs {
			dd[base+i] = srcs[i].at(r)
		}
		// Answer: evaluate the query against the freshly built tuple.
		if passes(dd, base, bound) {
			switch out.Kind {
			case OutProjection:
				for _, o := range projOffs {
					p.data = append(p.data, dd[base+o])
				}
				p.rows++
			case OutExpression:
				var acc data.Value
				for _, o := range exprOffs {
					acc += dd[base+o]
				}
				p.data = append(p.data, acc)
				p.rows++
			case OutGrouped:
				gf.push(p.groups, r)
			}
		}
		base += dStride
	}
	if gf != nil {
		gf.flush(p.groups)
	}
	dst.BuildZones(0)
	return dst, nil
}
