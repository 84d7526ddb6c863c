package exec

import (
	"slices"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/storage"
)

// segTask is one planned unit of segment-parallel work: the segment (and
// its index in the relation, for the touch set), the row pipeline's
// covering group and group-bound predicates, and the row range [lo, hi)
// to scan — the whole segment normally, a sub-range when segments are
// scarcer than workers.
type segTask struct {
	si     int
	seg    *storage.Segment
	g      *storage.ColumnGroup
	bound  []GroupPred
	lo, hi int
}

// split appends t's rows as consecutive ranges of per rows (the last one
// shorter) to dst.
func (t segTask) split(per int, dst []segTask) []segTask {
	for lo := t.lo; lo < t.hi; lo += per {
		r := t
		r.lo, r.hi = lo, min(lo+per, t.hi)
		dst = append(dst, r)
	}
	return dst
}

// partial is one segment's contribution: materialized rows, or for an
// aggregate output (OutGrouped) the range's accumulator.
type partial struct {
	data   []data.Value
	rows   int
	groups *groupedAcc
}

// interpFilter evaluates a non-splittable predicate over one column
// group: the interpreted predicate is bound to the group once per range —
// one accessor closure, not one per row — so disjunctions and other shapes
// the compiled kernels refuse still scan in parallel.
type interpFilter struct {
	pred   expr.Pred
	get    expr.Accessor
	d      []data.Value
	stride int
	base   int
	offs   []int // attribute id -> word offset within the group
}

func newInterpFilter(g *storage.ColumnGroup, pred expr.Pred) *interpFilter {
	f := &interpFilter{pred: pred, d: g.Data, stride: g.Stride}
	attrs := pred.Attrs(nil)
	f.offs = make([]int, maxAttr(attrs)+1)
	for _, a := range attrs {
		if off, ok := g.Offset(a); ok {
			f.offs[a] = off
		}
	}
	f.get = func(a data.AttrID) data.Value { return f.d[f.base+f.offs[a]] }
	return f
}

// sel appends the rows of [start, start+n) that pass the predicate to sel.
func (f *interpFilter) sel(start, n int, sel []int32) []int32 {
	for r := start; r < start+n; r++ {
		f.base = r * f.stride
		if f.pred.EvalBool(f.get) {
			sel = append(sel, int32(r))
		}
	}
	return sel
}

// scanRange is the fused row scan over rows [lo, hi) of one group: the
// row pipeline's per-segment operator, sharing the kernels and shapes of
// the paper's Figure 5 operator. It works one VectorSize chunk at a time:
// the chunk's rows are filtered — by FilterGroup over the bound
// predicates, or by the interpreted generic predicate — and the survivors
// are emitted or folded while the chunk's tuples are in cache.
func scanRange(g *storage.ColumnGroup, out Outputs, bound []GroupPred, generic expr.Pred, lo, hi int) *partial {
	var flt *interpFilter
	if generic != nil {
		flt = newInterpFilter(g, generic)
	}
	p := &partial{}
	var gf *groupedFolder
	if out.Kind == OutGrouped {
		gf = columnGroupFolder(g, out)
		p.groups = newGroupedAcc(out)
	}
	e := newEmitter(g, out)
	sel := make([]int32, 0, VectorSize)
	for c := lo; c < hi; c += VectorSize {
		n := min(VectorSize, hi-c)
		if flt != nil {
			sel = flt.sel(c, n, sel[:0])
		} else {
			sel = FilterGroup(g, bound, c, n, sel[:0])
		}
		if gf != nil {
			gf.foldSel(p.groups, sel)
		} else {
			e.emit(p, sel)
		}
	}
	return p
}

// emitter appends the qualifying rows of one column group to a partial's
// materialized rows: the projected columns, or the expression's sum of
// columns.
type emitter struct {
	g    *storage.ColumnGroup
	kind OutKind
	offs []int
}

func newEmitter(g *storage.ColumnGroup, out Outputs) emitter {
	e := emitter{g: g, kind: out.Kind}
	switch out.Kind {
	case OutProjection:
		e.offs = mustOffsets(g, out.ProjAttrs)
	case OutExpression:
		e.offs = mustOffsets(g, out.ExprAttrs)
	}
	return e
}

// emit appends the output rows of the rows listed in sel to p, one output
// column at a time.
func (e *emitter) emit(p *partial, sel []int32) {
	n, base := len(sel), len(p.data)
	switch e.kind {
	case OutProjection:
		w := len(e.offs)
		p.data = slices.Grow(p.data, n*w)[:base+n*w]
		rows := p.data[base:]
		d, stride := e.g.Data, e.g.Stride
		for j, o := range e.offs {
			for i, r := range sel {
				rows[i*w+j] = d[int(r)*stride+o]
			}
		}
	case OutExpression:
		p.data = slices.Grow(p.data, n)[:base+n]
		SumOffsetsSel(e.g, e.offs, sel, p.data[base:])
	default:
		return
	}
	p.rows += n
}
