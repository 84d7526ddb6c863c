package exec

import (
	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/storage"
)

// GroupPred is a single-column comparison compiled against a specific column
// group: the attribute has been resolved to a word offset within the group's
// mini-tuple. Kernels evaluate GroupPreds in tight monomorphic loops — the
// compiled equivalents of the paper's Figures 5 and 6.
type GroupPred struct {
	Off int
	Op  expr.CmpOp
	Val data.Value
}

// ColPred is a single-column comparison against a base-schema attribute,
// before it is bound to a group.
type ColPred struct {
	Attr data.AttrID
	Op   expr.CmpOp
	Val  data.Value
}

// SplitConjunction decomposes a predicate into a list of single-column
// comparisons with constant right-hand sides. It reports ok=false when the
// predicate has any other shape (disjunctions, expression comparisons), in
// which case callers fall back to the interpreted path.
func SplitConjunction(p expr.Pred) ([]ColPred, bool) {
	if p == nil {
		return nil, true
	}
	switch t := p.(type) {
	case *expr.Cmp:
		col, okL := t.L.(*expr.Col)
		k, okR := t.R.(*expr.Const)
		if okL && okR {
			return []ColPred{{Attr: col.ID, Op: t.Op, Val: k.V}}, true
		}
		// Mirror form: const op col.
		k2, okL2 := t.L.(*expr.Const)
		col2, okR2 := t.R.(*expr.Col)
		if okL2 && okR2 {
			return []ColPred{{Attr: col2.ID, Op: mirror(t.Op), Val: k2.V}}, true
		}
		return nil, false
	case *expr.And:
		var out []ColPred
		for _, term := range t.Terms {
			sub, ok := SplitConjunction(term)
			if !ok {
				return nil, false
			}
			out = append(out, sub...)
		}
		return out, true
	default:
		return nil, false
	}
}

// mirror flips a comparison for swapped operands: (k < col) ≡ (col > k).
func mirror(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.Lt:
		return expr.Gt
	case expr.Le:
		return expr.Ge
	case expr.Gt:
		return expr.Lt
	case expr.Ge:
		return expr.Le
	default:
		return op // Eq, Ne are symmetric
	}
}

// BindPreds resolves column predicates to word offsets within g. All
// predicate attributes must be stored in g.
func BindPreds(g *storage.ColumnGroup, preds []ColPred) ([]GroupPred, bool) {
	out := make([]GroupPred, len(preds))
	for i, p := range preds {
		off, ok := g.Offset(p.Attr)
		if !ok {
			return nil, false
		}
		out[i] = GroupPred{Off: off, Op: p.Op, Val: p.Val}
	}
	return out, true
}

// passes evaluates all predicates against the mini-tuple starting at base.
// It is inlined into kernels that cannot specialize further (3+ predicates).
func passes(d []data.Value, base int, preds []GroupPred) bool {
	for i := range preds {
		p := &preds[i]
		if !expr.Compare(p.Op, d[base+p.Off], p.Val) {
			return false
		}
	}
	return true
}

// FilterGroup scans rows [start, start+n) of g, evaluating the conjunction
// of preds in one pass, and appends qualifying row ids to sel (the paper's
// selection vector, Fig. 6 q1_sel_vector). It returns the extended vector.
//
// The hot shapes — one and two predicates with fixed operators — dispatch to
// monomorphic loops selected *outside* the loop, which is what the paper's
// generated code achieves by compiling the operator per query. Qualifying
// ids are written branchlessly (store, then conditionally advance), the
// standard selection-vector primitive: mid-range selectivities would
// otherwise stall on branch mispredictions.
func FilterGroup(g *storage.ColumnGroup, preds []GroupPred, start, n int, sel []int32) []int32 {
	d, stride := g.Data, g.Stride
	// Ensure room for the worst case so the hot loops never reallocate.
	have := len(sel)
	if cap(sel)-have < n {
		grown := make([]int32, have, have+n)
		copy(grown, sel)
		sel = grown
	}
	buf := sel[have : have+n]
	j := 0
	switch len(preds) {
	case 0:
		for r := start; r < start+n; r++ {
			buf[j] = int32(r)
			j++
		}
	case 1:
		j = filterOne(d, stride, preds[0], start, n, buf)
	case 2:
		p0, p1 := preds[0], preds[1]
		base := start * stride
		for r := start; r < start+n; r++ {
			buf[j] = int32(r)
			if expr.Compare(p0.Op, d[base+p0.Off], p0.Val) && expr.Compare(p1.Op, d[base+p1.Off], p1.Val) {
				j++
			}
			base += stride
		}
	default:
		base := start * stride
		for r := start; r < start+n; r++ {
			buf[j] = int32(r)
			if passes(d, base, preds) {
				j++
			}
			base += stride
		}
	}
	// Keep the full capacity: zone-at-a-time callers reuse the vector across
	// many consecutive FilterGroup calls.
	return sel[:have+j]
}

// filterOne is the single-predicate kernel with the comparison operator
// hoisted out of the loop: six monomorphic branchless loops instead of one
// loop with a per-tuple switch. buf must have room for n ids; it returns the
// number of qualifying rows written.
func filterOne(d []data.Value, stride int, p GroupPred, start, n int, buf []int32) int {
	idx := start*stride + p.Off
	v := p.Val
	j := 0
	switch p.Op {
	case expr.Lt:
		for r := start; r < start+n; r++ {
			buf[j] = int32(r)
			if d[idx] < v {
				j++
			}
			idx += stride
		}
	case expr.Le:
		for r := start; r < start+n; r++ {
			buf[j] = int32(r)
			if d[idx] <= v {
				j++
			}
			idx += stride
		}
	case expr.Gt:
		for r := start; r < start+n; r++ {
			buf[j] = int32(r)
			if d[idx] > v {
				j++
			}
			idx += stride
		}
	case expr.Ge:
		for r := start; r < start+n; r++ {
			buf[j] = int32(r)
			if d[idx] >= v {
				j++
			}
			idx += stride
		}
	case expr.Eq:
		for r := start; r < start+n; r++ {
			buf[j] = int32(r)
			if d[idx] == v {
				j++
			}
			idx += stride
		}
	case expr.Ne:
		for r := start; r < start+n; r++ {
			buf[j] = int32(r)
			if d[idx] != v {
				j++
			}
			idx += stride
		}
	}
	return j
}

// RefineSel re-evaluates the conjunction of preds over g for the candidate
// row ids in sel, compacting survivors in place and returning the shortened
// vector. Used when predicates span multiple column groups (Fig. 6's
// strategy generalized to more groups).
func RefineSel(g *storage.ColumnGroup, preds []GroupPred, sel []int32) []int32 {
	d, stride := g.Data, g.Stride
	w := 0
	if len(preds) == 1 {
		p := preds[0]
		off, op, v := p.Off, p.Op, p.Val
		for _, r := range sel {
			sel[w] = r
			if expr.Compare(op, d[int(r)*stride+off], v) {
				w++
			}
		}
		return sel[:w]
	}
	for _, r := range sel {
		sel[w] = r
		if passes(d, int(r)*stride, preds) {
			w++
		}
	}
	return sel[:w]
}

// groupFilter is a conjunction of column predicates bound to one segment's
// groups. Predicates that share a group evaluate together in one kernel
// pass, and groups run in first-use order: the first filters with
// FilterGroup, the rest refine the survivors with RefineSel. The hybrid
// and hash-join operators filter through it.
type groupFilter []boundGroup

type boundGroup struct {
	g     *storage.ColumnGroup
	preds []GroupPred
}

// bindGroupFilter binds preds to the groups assign resolves their
// attributes to.
func bindGroupFilter(assign map[data.AttrID]*storage.ColumnGroup, preds []ColPred) groupFilter {
	var f groupFilter
	for _, p := range preds {
		g := assign[p.Attr]
		off, _ := g.Offset(p.Attr)
		i := 0
		for i < len(f) && f[i].g != g {
			i++
		}
		if i == len(f) {
			f = append(f, boundGroup{g: g})
		}
		f[i].preds = append(f[i].preds, GroupPred{Off: off, Op: p.Op, Val: p.Val})
	}
	return f
}

// sel returns the rows of [start, start+n) that pass every predicate,
// reusing buf's storage. An empty filter selects nothing; callers scan
// every row instead.
func (f groupFilter) sel(start, n int, buf []int32) []int32 {
	sel := buf[:0]
	for i := range f {
		if i == 0 {
			sel = FilterGroup(f[i].g, f[i].preds, start, n, sel)
			continue
		}
		sel = RefineSel(f[i].g, f[i].preds, sel)
	}
	return sel
}

// GatherColumn copies the values of the attribute at offset off for the rows
// in sel into out (positional fetch through a selection vector). Plain
// columns (stride 1) take a specialized loop without the stride multiply.
func GatherColumn(g *storage.ColumnGroup, off int, sel []int32, out []data.Value) {
	d, stride := g.Data, g.Stride
	if stride == 1 {
		for i, r := range sel {
			out[i] = d[r]
		}
		return
	}
	for i, r := range sel {
		out[i] = d[int(r)*stride+off]
	}
}

// SumOffsetsAll computes, for every row of g, the sum of the attribute
// values at the given offsets, writing one value per row into out. This is
// the fused expression kernel of Fig. 5 (res[j] = ptr[0]+ptr[1]+ptr[2])
// generalized to any offset set, with no intermediate results.
func SumOffsetsAll(g *storage.ColumnGroup, offs []int, out []data.Value) {
	d, stride, rows := g.Data, g.Stride, g.Rows
	switch len(offs) {
	case 1:
		o0 := offs[0]
		base := 0
		for r := 0; r < rows; r++ {
			out[r] = d[base+o0]
			base += stride
		}
	case 2:
		o0, o1 := offs[0], offs[1]
		base := 0
		for r := 0; r < rows; r++ {
			out[r] = d[base+o0] + d[base+o1]
			base += stride
		}
	case 3:
		o0, o1, o2 := offs[0], offs[1], offs[2]
		base := 0
		for r := 0; r < rows; r++ {
			out[r] = d[base+o0] + d[base+o1] + d[base+o2]
			base += stride
		}
	default:
		base := 0
		for r := 0; r < rows; r++ {
			var acc data.Value
			for _, o := range offs {
				acc += d[base+o]
			}
			out[r] = acc
			base += stride
		}
	}
}

// SumOffsetsSel computes the offset-sum expression only for the rows in sel
// (Fig. 6 q1_compute_expression with a selection vector).
func SumOffsetsSel(g *storage.ColumnGroup, offs []int, sel []int32, out []data.Value) {
	d, stride := g.Data, g.Stride
	switch len(offs) {
	case 3:
		o0, o1, o2 := offs[0], offs[1], offs[2]
		for i, r := range sel {
			base := int(r) * stride
			out[i] = d[base+o0] + d[base+o1] + d[base+o2]
		}
	default:
		for i, r := range sel {
			base := int(r) * stride
			var acc data.Value
			for _, o := range offs {
				acc += d[base+o]
			}
			out[i] = acc
		}
	}
}
