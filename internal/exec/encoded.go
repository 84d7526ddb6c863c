package exec

import (
	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// This file holds the encoded-direct strategy: aggregates, scalar or
// grouped, and projections with splittable conjunctive predicates are
// answered straight from the per-column encoded blocks of sealed segments
// (storage/encode.go), without materializing flat data. Per 4096-row block
// the kernel classifies each predicate against the block's exact min/max
// header: blocks no row of which can match are skipped without touching
// their payload, fully-matching blocks of a scalar aggregate fold their
// exact min/max/sum/rows statistics into the accumulator without decoding,
// and only the other blocks pay a decode — and then only for the columns
// the query actually reads.
// A projection decodes its projected columns only in blocks with
// survivors. On mmap-backed spill files a skipped block's payload pages
// are never faulted in at all.

// encCol binds one attribute to its encoded column with a one-block
// decode cache: within a block, predicates and folds that touch the same
// attribute decode it once. When the owning group is flat-resident
// (pinned, so the data cannot be demoted underneath us), flat/off/stride
// alias its Data and block reads are served from there — the headers
// still skip and fold blocks, but indeterminate blocks refine at flat
// speed instead of paying a payload decode.
type encCol struct {
	col         *storage.EncColumn
	flat        []data.Value // group Data when flat-resident, else nil
	off, stride int
	scratch     []data.Value
	vals        []data.Value // decoded values of block bi, nil before first use
	bi          int
}

// encReader resolves attributes to encoded columns of one segment and
// serves per-block decodes through the per-attribute cache.
type encReader struct {
	cols map[data.AttrID]*encCol
	some []int // blockSel scratch: indices of partially matching predicates
}

// readAttrs lists the attributes an encoded scan reads: the output
// columns, then the predicate columns.
func readAttrs(cols []data.AttrID, preds []ColPred) []data.AttrID {
	attrs := make([]data.AttrID, 0, len(cols)+len(preds))
	attrs = append(attrs, cols...)
	for i := range preds {
		attrs = append(attrs, preds[i].Attr)
	}
	return attrs
}

// newEncReader binds attrs against the cached encodings of seg's
// narrowest covering groups. ok is false — with no error — when some
// needed group holds no encoding, in which case the caller must use a
// flat path.
func newEncReader(seg *storage.Segment, attrs []data.AttrID) (er *encReader, ok bool, err error) {
	er = &encReader{cols: make(map[data.AttrID]*encCol, len(attrs))}
	for _, a := range attrs {
		if _, dup := er.cols[a]; dup {
			continue
		}
		g, err := seg.GroupFor(a)
		if err != nil {
			return nil, false, err
		}
		e := g.CachedEncoding()
		if e == nil {
			return nil, false, nil
		}
		off, _ := g.Offset(a)
		c := &encCol{col: e.Cols[off], bi: -1}
		if flat := seg.FlatData(g); flat != nil {
			c.flat, c.off, c.stride = flat, off, g.Stride
		}
		er.cols[a] = c
	}
	return er, true, nil
}

// blockOf returns the encoded block bi of attribute a without decoding.
func (er *encReader) blockOf(a data.AttrID, bi int) *storage.EncBlock {
	return &er.cols[a].col.Blocks[bi]
}

// appendMatchesVals appends the indices of vals satisfying (op, v) to sel.
// The operator switch is hoisted out of the row loop and indices are
// written unconditionally with a conditionally advanced cursor — the
// branchless selection-vector idiom — so throughput does not collapse at
// mid selectivities where a branchy append mispredicts every other row.
func appendMatchesVals(op expr.CmpOp, vals []data.Value, v data.Value, sel []int32) []int32 {
	base := len(sel)
	if cap(sel) < base+len(vals) {
		grown := make([]int32, base+len(vals))
		copy(grown, sel)
		sel = grown
	} else {
		sel = sel[:base+len(vals)]
	}
	out := sel[base:]
	n := 0
	switch op {
	case expr.Lt:
		for r, x := range vals {
			out[n] = int32(r)
			if x < v {
				n++
			}
		}
	case expr.Le:
		for r, x := range vals {
			out[n] = int32(r)
			if x <= v {
				n++
			}
		}
	case expr.Gt:
		for r, x := range vals {
			out[n] = int32(r)
			if x > v {
				n++
			}
		}
	case expr.Ge:
		for r, x := range vals {
			out[n] = int32(r)
			if x >= v {
				n++
			}
		}
	case expr.Eq:
		for r, x := range vals {
			out[n] = int32(r)
			if x == v {
				n++
			}
		}
	case expr.Ne:
		for r, x := range vals {
			out[n] = int32(r)
			if x != v {
				n++
			}
		}
	default:
		for r, x := range vals {
			out[n] = int32(r)
			if expr.Compare(op, x, v) {
				n++
			}
		}
	}
	return sel[:base+n]
}

// block returns the values of block bi of attribute a, serving repeats
// from the cache. Flat-resident columns are read from their group data
// (a direct view for stride-1 groups); everything else decodes the
// encoded payload.
func (er *encReader) block(a data.AttrID, bi int, stats *StrategyStats) []data.Value {
	c := er.cols[a]
	if c.vals != nil && c.bi == bi {
		return c.vals
	}
	b := &c.col.Blocks[bi]
	if c.flat != nil {
		base := bi * storage.EncBlockRows
		if c.stride == 1 {
			c.vals = c.flat[base : base+b.Rows]
		} else {
			if c.scratch == nil {
				c.scratch = make([]data.Value, storage.EncBlockRows)
			}
			for r := 0; r < b.Rows; r++ {
				c.scratch[r] = c.flat[(base+r)*c.stride+c.off]
			}
			c.vals = c.scratch[:b.Rows]
		}
		c.bi = bi
		return c.vals
	}
	if c.scratch == nil {
		c.scratch = make([]data.Value, storage.EncBlockRows)
	}
	c.vals = b.Decode(c.scratch)
	c.bi = bi
	if stats != nil {
		stats.EncodedBytes += int64(len(b.Words)) * 8
	}
	return c.vals
}

// blockSel classifies block bi against preds from the blocks' exact
// min/max headers and builds the block-relative selection of its
// qualifying rows into sel's storage. live is false when no row qualifies;
// a block a header rules out is counted as a decode skip. haveSel is
// false when every row qualifies — no predicate was indeterminate, so no
// payload was read and sel is empty. preds must come from a successful
// SplitConjunction.
func (er *encReader) blockSel(bi int, preds []ColPred, sel []int32, stats *StrategyStats) (out []int32, haveSel, live bool) {
	er.some = er.some[:0]
	for pi := range preds {
		switch er.blockOf(preds[pi].Attr, bi).Match(preds[pi].Op, preds[pi].Val) {
		case storage.MatchNone:
			if stats != nil {
				stats.DecodeSkips++
			}
			return sel[:0], false, false
		case storage.MatchSome:
			er.some = append(er.some, pi)
		}
	}
	if len(er.some) == 0 {
		return sel[:0], false, true
	}
	// The first indeterminate predicate scans the encoded payload directly
	// (run-wise over RLE, unpack-compare over FOR/delta) — or the flat
	// column when the group is resident — later ones refine against block
	// values.
	p := &preds[er.some[0]]
	sel = sel[:0]
	if er.cols[p.Attr].flat != nil {
		sel = appendMatchesVals(p.Op, er.block(p.Attr, bi, stats), p.Val, sel)
	} else {
		b := er.blockOf(p.Attr, bi)
		sel = b.AppendMatches(p.Op, p.Val, sel)
		if stats != nil {
			stats.EncodedBytes += int64(len(b.Words)) * 8
		}
	}
	for _, pi := range er.some[1:] {
		p := &preds[pi]
		vals := er.block(p.Attr, bi, stats)
		w := 0
		for _, r := range sel {
			if expr.Compare(p.Op, vals[r], p.Val) {
				sel[w] = r
				w++
			}
		}
		sel = sel[:w]
	}
	return sel, true, len(sel) > 0
}

// encodedSegmentScan folds one pinned segment into ga using the encoded
// block kernel. ok is false — and nothing has been folded — when the
// segment's needed groups hold no encodings; the caller then falls back to
// a flat scan. preds must come from a successful SplitConjunction.
func encodedSegmentScan(seg *storage.Segment, out Outputs, preds []ColPred, ga *groupedAcc, stats *StrategyStats) (ok bool, err error) {
	foldAttrs := groupedScanAttrs(out)
	er, ok, err := newEncReader(seg, readAttrs(foldAttrs, preds))
	if err != nil || !ok {
		return false, err
	}
	// Keys and aggregate arguments bind to the current block's decoded
	// columns.
	gf := newGroupedFolder(out, foldAttrs, nil, seg)
	headers := ga.scalar() && headerFoldable(gf.args)

	nBlocks := (seg.Rows + storage.EncBlockRows - 1) / storage.EncBlockRows
	selBuf := make([]int32, 0, storage.EncBlockRows)
	for bi := 0; bi < nBlocks; bi++ {
		n := min(storage.EncBlockRows, seg.Rows-bi*storage.EncBlockRows)
		sel, haveSel, live := er.blockSel(bi, preds, selBuf, stats)
		if !live {
			continue
		}
		if !haveSel && headers {
			// Every row matches: fold the exact block statistics,
			// payloads untouched.
			er.foldHeaders(ga, gf.args, bi, n)
			if stats != nil {
				stats.DecodeSkips++
			}
			continue
		}
		for _, a := range foldAttrs {
			gf.binds[a] = colBinding{d: er.block(a, bi, stats), stride: 1}
		}
		if haveSel {
			gf.foldSel(ga, sel)
		} else {
			gf.foldRange(ga, 0, n)
		}
	}
	return true, nil
}

// headerFoldable reports whether a block every row of which qualifies
// folds into a scalar accumulator from its columns' header statistics:
// count needs only the row count, sum and avg of a sum of columns the
// columns' sums, min and max of one column its min or max. min and max of
// a sum, and any other argument expression, must see row values.
func headerFoldable(args []folderArg) bool {
	for _, a := range args {
		switch {
		case a.op == expr.AggCount:
		case a.cols == nil:
			return false
		case len(a.cols) > 1 && (a.op == expr.AggMin || a.op == expr.AggMax):
			return false
		}
	}
	return true
}

// foldHeaders folds block bi, all n of whose rows qualify, into the
// scalar accumulator ga from the block headers alone; args must be
// headerFoldable.
func (er *encReader) foldHeaders(ga *groupedAcc, args []folderArg, bi, n int) {
	ga.count[0] += int64(n)
	for j, a := range args {
		switch a.op {
		case expr.AggSum, expr.AggAvg:
			for _, c := range a.cols {
				ga.add(j, 0, er.blockOf(c, bi).Sum)
			}
		case expr.AggMin:
			ga.add(j, 0, er.blockOf(a.cols[0], bi).Min)
		case expr.AggMax:
			ga.add(j, 0, er.blockOf(a.cols[0], bi).Max)
		}
	}
}

// encodedProjectionScan materializes one pinned segment's qualifying rows
// of out.ProjAttrs block by block: header-ruled-out blocks are skipped,
// the selection is built from the predicate columns, and the projected
// columns are decoded only in blocks with survivors. Rows are appended in
// segment order, so the partial matches the flat kernels' bit for bit.
// With limit > 0 the scan stops after the first block that brings the
// segment's row count to limit (the engine truncates the merged result).
// ok is false — with no rows emitted — when some needed group holds no
// encoding; the caller then falls back to a flat scan.
func encodedProjectionScan(seg *storage.Segment, out Outputs, preds []ColPred, limit int, stats *StrategyStats) (p *partial, ok bool, err error) {
	er, ok, err := newEncReader(seg, readAttrs(out.ProjAttrs, preds))
	if err != nil || !ok {
		return nil, false, err
	}
	w := len(out.ProjAttrs)
	p = &partial{}
	nBlocks := (seg.Rows + storage.EncBlockRows - 1) / storage.EncBlockRows
	selBuf := make([]int32, 0, storage.EncBlockRows)
	for bi := 0; bi < nBlocks && (limit <= 0 || p.rows < limit); bi++ {
		sel, haveSel, live := er.blockSel(bi, preds, selBuf, stats)
		if !live {
			continue
		}
		n := len(sel)
		if !haveSel {
			n = min(storage.EncBlockRows, seg.Rows-bi*storage.EncBlockRows)
		}
		base := len(p.data)
		p.data = append(p.data, make([]data.Value, n*w)...)
		for j, a := range out.ProjAttrs {
			vals := er.block(a, bi, stats)
			dst := p.data[base+j:]
			if haveSel {
				for i, r := range sel {
					dst[i*w] = vals[r]
				}
			} else {
				for r, v := range vals[:n] {
					dst[r*w] = v
				}
			}
		}
		p.rows += n
	}
	return p, true, nil
}

// encodedProjectionPartial is the encoded pipeline's projection operator:
// the block kernel when the segment's needed groups hold encodings,
// otherwise a nested flat pin and the hybrid selection-vector kernel.
func encodedProjectionPartial(seg *storage.Segment, q *query.Query, out Outputs, preds []ColPred, limit int, stats *StrategyStats) (*partial, error) {
	p, ok, err := encodedProjectionScan(seg, out, preds, limit, stats)
	if err != nil || ok {
		return p, err
	}
	if _, err := seg.Acquire(); err != nil {
		return nil, err
	}
	defer seg.Release()
	return hybridSegPartial(seg, q, out, preds, stats)
}

// ServesEncoded reports whether the encoded-direct pipeline would win on
// q: some segment the zone maps cannot prune serves from an encoded form
// — non-resident (faults back encoded) or resident with cached encodings.
// When every survivor is flat — e.g. only the mutable tail is left after
// pruning — the flat strategies' fused operators beat the encoded
// pipeline's flat fallback, and there is nothing encoded to win on. The
// serving layer consults this before dispatching StrategyEncoded.
func ServesEncoded(rel *storage.Relation, q *query.Query) bool {
	preds, splittable := SplitConjunction(q.Where)
	if !splittable {
		return false
	}
	for _, seg := range rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		if len(preds) > 0 && segPruned(seg, preds) {
			continue
		}
		if seg.State() != storage.SegResident || seg.EncodedBytes() > 0 {
			return true
		}
	}
	return false
}
