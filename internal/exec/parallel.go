package exec

import (
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

// partial is one segment's contribution: materialized rows, or for an
// aggregate output (OutGrouped) the range's accumulator.
type partial struct {
	data   []data.Value
	rows   int
	groups *groupedAcc
}

// rangeFilter evaluates one segment's filter. The compiled path (bound
// offset predicates) is the common case and stays branch-free per row; the
// generic path re-binds the interpreted predicate to the group once per
// segment — one accessor closure per segment, not per row — so
// disjunctions and other non-splittable shapes still scan in parallel.
type rangeFilter struct {
	bound   []GroupPred
	generic expr.Pred
	get     expr.Accessor
	d       []data.Value
	base    int
	offs    []int // attribute id -> word offset within the group
}

func newRangeFilter(g *storage.ColumnGroup, bound []GroupPred, generic expr.Pred) *rangeFilter {
	f := &rangeFilter{bound: bound, generic: generic, d: g.Data}
	if generic != nil {
		maxAttr := data.AttrID(0)
		attrs := generic.Attrs(nil)
		for _, a := range attrs {
			if a > maxAttr {
				maxAttr = a
			}
		}
		f.offs = make([]int, maxAttr+1)
		for _, a := range attrs {
			if off, ok := g.Offset(a); ok {
				f.offs[a] = off
			}
		}
		f.get = func(a data.AttrID) data.Value { return f.d[f.base+f.offs[a]] }
	}
	return f
}

// passes evaluates the filter against the mini-tuple starting at base.
func (f *rangeFilter) passes(base int) bool {
	if f.generic != nil {
		f.base = base
		return f.generic.EvalBool(f.get)
	}
	return passes(f.d, base, f.bound)
}

// scanRange is the fused row scan over rows [lo, hi) of one group: the
// row pipeline's per-segment operator, sharing the kernels and shapes of
// the paper's Figure 5 operator.
func scanRange(g *storage.ColumnGroup, out Outputs, bound []GroupPred, generic expr.Pred, lo, hi int) *partial {
	d, stride := g.Data, g.Stride
	flt := newRangeFilter(g, bound, generic)
	p := &partial{}
	switch out.Kind {
	case OutProjection:
		offs := mustOffsets(g, out.ProjAttrs)
		base := lo * stride
		for r := lo; r < hi; r++ {
			if flt.passes(base) {
				for _, o := range offs {
					p.data = append(p.data, d[base+o])
				}
				p.rows++
			}
			base += stride
		}
	case OutExpression:
		offs := mustOffsets(g, out.ExprAttrs)
		base := lo * stride
		for r := lo; r < hi; r++ {
			if flt.passes(base) {
				var acc data.Value
				for _, o := range offs {
					acc += d[base+o]
				}
				p.data = append(p.data, acc)
				p.rows++
			}
			base += stride
		}
	case OutGrouped:
		f := columnGroupFolder(g, out)
		ga := newGroupedAcc(out)
		base := lo * stride
		for r := lo; r < hi; r++ {
			if flt.passes(base) {
				f.push(ga, r)
			}
			base += stride
		}
		f.flush(ga)
		p.groups = ga
	}
	return p
}
