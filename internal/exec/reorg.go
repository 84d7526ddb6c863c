package exec

import (
	"sync/atomic"

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
//
// The pass fans out like every pipeline: each hot segment splits into
// chunk-aligned ranges of reorgRangeChunks chunks that share the segment's
// Stitcher, cold segments are whole-segment tasks, and ExecOpts.Workers
// goroutines claim the tasks in order. Partials merge in task order, so the
// answer is bit-identical to the serial pass at any width, and each new
// group gets its zone map once all of its ranges have been stitched.

// reorgRangeChunks is the length, in VectorSize chunks, of the row ranges
// a hot segment splits into: small enough that a full 65,536-row segment
// gives 16 ranges and a relation's segments of unequal length still balance
// across the workers, large enough that a range's folder and partial cost
// little beside its stitch (morsel-driven scheduling, Leis et al.,
// SIGMOD 2014).
const reorgRangeChunks = 4

// reorgSeg is one hot segment of a reorganizing pass: the Stitcher its
// range tasks share, the query's predicates bound to the new group, and the
// number of its ranges not yet stitched.
type reorgSeg struct {
	st    *storage.Stitcher
	bound []GroupPred
	left  atomic.Int32
}

// newReorgSeg plans the stitch of seg into a group over norm, split into
// ranges of rangeRows rows.
func newReorgSeg(seg *storage.Segment, norm []data.AttrID, preds []ColPred, rangeRows int) (*reorgSeg, error) {
	st, err := storage.NewStitcher(seg, norm)
	if err != nil {
		return nil, err
	}
	bound, _ := BindPreds(st.Group(), preds)
	rs := &reorgSeg{st: st, bound: bound}
	rs.left.Store(int32((seg.Rows + rangeRows - 1) / rangeRows))
	return rs, nil
}

// scanRange stitches rows [lo, hi) of the segment's new group while
// answering the query over the freshly built mini-tuples — the fused
// copy-and-evaluate pass of Fig. 13, one range at a time. Each VectorSize
// chunk is stitched one destination column at a time, filtered with the
// monomorphic FilterGroup kernel, and its survivors are emitted or folded
// into the range's own partial while the chunk is still in cache. Ranges
// of one segment write disjoint rows of the shared group, so they may run
// concurrently; the group is finished once every range has run (finish).
func (rs *reorgSeg) scanRange(seg *storage.Segment, out Outputs, lo, hi int) *partial {
	dst := rs.st.Group()
	p := newPartial(out)
	var gf *groupedFolder
	if out.Kind == OutGrouped {
		gf = newGroupedFolder(out, groupedScanAttrs(out), func(data.AttrID) *storage.ColumnGroup { return dst }, seg)
	}
	e := newEmitter(dst, out)
	sel := make([]int32, 0, VectorSize)
	for c := lo; c < hi; c += VectorSize {
		n := min(VectorSize, hi-c)
		rs.st.Rows(c, c+n)
		sel = FilterGroup(dst, rs.bound, c, n, sel[:0])
		if gf != nil {
			gf.foldSel(p.groups, sel)
		} else {
			e.emit(p, sel)
		}
	}
	rs.left.Add(-1)
	return p
}

// finish returns the stitched group with its zone map, assembled from its
// sources' maps (storage.Stitcher.Finish), or nil when some range of the
// segment never ran.
func (rs *reorgSeg) finish() *storage.ColumnGroup {
	if rs.left.Load() != 0 {
		return nil
	}
	return rs.st.Finish()
}
