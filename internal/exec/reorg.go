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
// twice." The pass runs a chunk of rows at a time: each chunk is stitched,
// filtered and folded before the next is stitched, so the query reads the
// new tuples from cache.
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
// pass of Fig. 13, at segment granularity. Each VectorSize chunk is
// stitched one destination column at a time, filtered with the
// monomorphic FilterGroup kernel, and its survivors are emitted or folded
// while the chunk is still in cache. Materialized rows append to p
// in segment order; aggregates fold into p's accumulator. The new group's
// zone map is assembled from its sources' maps (storage.Stitcher.Finish).
func reorgScanSegment(seg *storage.Segment, out Outputs, preds []ColPred, norm []data.AttrID, p *partial) (*storage.ColumnGroup, error) {
	st, err := storage.NewStitcher(seg, norm)
	if err != nil {
		return nil, err
	}
	dst := st.Group()
	bound, _ := BindPreds(dst, preds)
	var gf *groupedFolder
	if out.Kind == OutGrouped {
		gf = newGroupedFolder(out, groupedScanAttrs(out), func(data.AttrID) *storage.ColumnGroup { return dst }, seg)
	}
	e := newEmitter(dst, out)
	sel := make([]int32, 0, VectorSize)
	for lo := 0; lo < seg.Rows; lo += VectorSize {
		hi := min(lo+VectorSize, seg.Rows)
		st.Rows(lo, hi)
		sel = FilterGroup(dst, bound, lo, hi-lo, sel[:0])
		if gf != nil {
			gf.foldSel(p.groups, sel)
		} else {
			e.emit(p, sel)
		}
	}
	return st.Finish(), nil
}
