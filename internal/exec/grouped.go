package exec

import (
	"sort"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// This file holds the grouped-aggregation machinery shared by every
// strategy: a per-scan group accumulator (group key → AggState vector), an
// order-preserving key codec so sorting encoded keys sorts key vectors, a
// fused kernel binding for single-covering-group scans (the row strategies)
// and an accessor-based folder for multi-group layouts (column, hybrid,
// vectorized, bitmap, generic). All strategies emit groups ordered ascending
// by key vector, so grouped results are bit-identical across strategies and
// the delta-repair path, and LIMIT on a grouped query is a deterministic
// prefix of groups.

// encodeGroupKey appends the order-preserving fixed-width encoding of key to
// dst: each value is sign-flipped and written big-endian, so lexicographic
// order of encoded keys equals ascending numeric order of key vectors.
func encodeGroupKey(dst []byte, key []data.Value) []byte {
	for _, v := range key {
		u := uint64(v) ^ (1 << 63)
		dst = append(dst, byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return dst
}

// decodeGroupKey appends the key vector encoded in k to dst.
func decodeGroupKey(k string, dst []data.Value) []data.Value {
	for i := 0; i+8 <= len(k); i += 8 {
		var u uint64
		for j := 0; j < 8; j++ {
			u = u<<8 | uint64(k[i+j])
		}
		dst = append(dst, data.Value(u^(1<<63)))
	}
	return dst
}

// groupedAcc accumulates one scan's groups: encoded key → one AggState per
// aggregate select item, in item order. m is the canonical map that
// partials and groupedResult read; one indexes the same state vectors of
// single-key groups by their raw key value, so the per-row lookup of the
// common one-key GROUP BY skips the key encoding and string hash.
type groupedAcc struct {
	ops  []expr.AggOp
	m    map[string][]*expr.AggState
	one  map[data.Value][]*expr.AggState
	kbuf []byte
}

func newGroupedAcc(out Outputs) *groupedAcc {
	return &groupedAcc{ops: out.GroupOps, m: make(map[string][]*expr.AggState)}
}

func (ga *groupedAcc) fresh() []*expr.AggState {
	sts := make([]*expr.AggState, len(ga.ops))
	for i, op := range ga.ops {
		sts[i] = expr.NewAggState(op)
	}
	return sts
}

// statesFor returns the aggregate vector for the key, creating fresh states
// on first sight. The returned slice may be empty for key-only (DISTINCT-
// like) grouped queries; the group's existence is still recorded.
func (ga *groupedAcc) statesFor(key []data.Value) []*expr.AggState {
	if len(key) == 1 {
		if sts, ok := ga.one[key[0]]; ok {
			return sts
		}
	}
	ga.kbuf = encodeGroupKey(ga.kbuf[:0], key)
	sts, ok := ga.m[string(ga.kbuf)]
	if !ok {
		sts = ga.fresh()
		ga.m[string(ga.kbuf)] = sts
	}
	if len(key) == 1 {
		// Index the canonical entry — created here or earlier by mergeMap —
		// so both maps always share one state vector per group.
		if ga.one == nil {
			ga.one = make(map[data.Value][]*expr.AggState)
		}
		ga.one[key[0]] = sts
	}
	return sts
}

// mergeMap folds a group map into ga key-wise, always into fresh or
// ga-owned states — the source map's states are never mutated, which is
// what lets cached SegPartial group maps be shared across repairs.
func (ga *groupedAcc) mergeMap(m map[string][]*expr.AggState) {
	for k, src := range m {
		sts, ok := ga.m[k]
		if !ok {
			sts = ga.fresh()
			ga.m[k] = sts
		}
		for i := range sts {
			sts[i].Merge(src[i])
		}
	}
}

// groupedResult materializes the accumulated groups as a Result with one row
// per group, ordered ascending by key vector. Key items read from the
// decoded key; aggregate items finalize their states.
func groupedResult(out Outputs, ga *groupedAcc) *Result {
	keys := make([]string, 0, len(ga.m))
	for k := range ga.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	aggIdx := make([]int, len(out.ItemKey))
	n := 0
	for i, ki := range out.ItemKey {
		if ki < 0 {
			aggIdx[i] = n
			n++
		}
	}
	res := &Result{
		Cols: out.Labels,
		Rows: len(keys),
		Data: make([]data.Value, 0, len(keys)*len(out.Labels)),
	}
	kv := make([]data.Value, 0, len(out.GroupBy))
	for _, k := range keys {
		kv = decodeGroupKey(k, kv[:0])
		sts := ga.m[k]
		for i, ki := range out.ItemKey {
			if ki >= 0 {
				res.Data = append(res.Data, kv[ki])
			} else {
				res.Data = append(res.Data, sts[aggIdx[i]].Result())
			}
		}
	}
	return res
}

// groupedScanAttrs returns the attributes a grouped fold must read: the
// group keys plus every aggregate-argument attribute. Predicate columns are
// excluded — the caller's selection machinery has already applied them.
func groupedScanAttrs(out Outputs) []data.AttrID {
	attrs := append([]data.AttrID(nil), out.GroupBy...)
	for _, e := range out.GroupArgs {
		attrs = e.Attrs(attrs)
	}
	return data.SortedUnique(attrs)
}

// groupedScanner is the fused grouped kernel over one covering group: key
// columns read by word offset, aggregate arguments read by offset sums when
// they are pure column sums, otherwise evaluated through a once-per-segment
// accessor closure (mirroring rangeFilter's generic path).
type groupedScanner struct {
	keyOffs []int
	keyBuf  []data.Value
	args    []groupedArg
	d       []data.Value
	base    int
	offs    []int // attribute id -> word offset, fallback args only
	get     expr.Accessor
}

type groupedArg struct {
	sumOffs []int     // non-nil: the argument is a sum of these offsets
	e       expr.Expr // otherwise: evaluate through the accessor
}

func newGroupedScanner(g *storage.ColumnGroup, out Outputs) *groupedScanner {
	s := &groupedScanner{
		keyOffs: mustOffsets(g, out.GroupBy),
		keyBuf:  make([]data.Value, len(out.GroupBy)),
		args:    make([]groupedArg, len(out.GroupArgs)),
		d:       g.Data,
	}
	var fallback []data.AttrID
	for i, e := range out.GroupArgs {
		if attrs, ok := SumLeaves(e); ok {
			s.args[i].sumOffs = mustOffsets(g, attrs)
			continue
		}
		s.args[i].e = e
		fallback = e.Attrs(fallback)
	}
	if len(fallback) > 0 {
		maxAttr := data.AttrID(0)
		for _, a := range fallback {
			if a > maxAttr {
				maxAttr = a
			}
		}
		s.offs = make([]int, maxAttr+1)
		for _, a := range fallback {
			if off, ok := g.Offset(a); ok {
				s.offs[a] = off
			}
		}
		s.get = func(a data.AttrID) data.Value { return s.d[s.base+s.offs[a]] }
	}
	return s
}

// fold accumulates the mini-tuple starting at word offset base into ga.
func (s *groupedScanner) fold(ga *groupedAcc, base int) {
	for i, o := range s.keyOffs {
		s.keyBuf[i] = s.d[base+o]
	}
	sts := ga.statesFor(s.keyBuf)
	for i := range s.args {
		a := &s.args[i]
		if a.sumOffs != nil {
			var acc data.Value
			for _, o := range a.sumOffs {
				acc += s.d[base+o]
			}
			sts[i].Add(acc)
		} else {
			s.base = base
			sts[i].Add(a.e.Eval(s.get))
		}
	}
}

// segGroupedFolder folds individual rows of one segment into a groupedAcc
// through per-attribute bindings resolved against the segment's own layout,
// shared by the column, hybrid, vectorized, bitmap and generic strategies.
// Group keys and pure column-sum arguments are bound by position once per
// segment; only other argument expressions (and the generic strategy's
// predicate) read through the accessor.
type segGroupedFolder struct {
	keys   []colBinding
	args   []folderArg
	keyBuf []data.Value
	binds  []colBinding // attribute id -> binding, accessor reads only
	row    int
	get    expr.Accessor
}

// colBinding is one attribute's resolved location inside a pinned segment:
// row r's value is d[r*stride+off].
type colBinding struct {
	d      []data.Value
	stride int
	off    int
}

func (b *colBinding) at(r int) data.Value { return b.d[r*b.stride+b.off] }

// bindAttrs resolves attrs to positional bindings against assign (a
// segment's covering-group assignment), in attrs order.
func bindAttrs(assign map[data.AttrID]*storage.ColumnGroup, attrs []data.AttrID) []colBinding {
	out := make([]colBinding, len(attrs))
	for i, a := range attrs {
		g := assign[a]
		off, _ := g.Offset(a)
		out[i] = colBinding{d: g.Data, stride: g.Stride, off: off}
	}
	return out
}

// folderArg is one aggregate argument: a sum of bound columns, or (cols
// nil) an expression evaluated through the folder's accessor.
type folderArg struct {
	cols []colBinding
	e    expr.Expr
}

// newSegGroupedFolder binds attrs against seg's covering groups. attrs must
// include the group keys and aggregate-argument attributes (and the where
// attributes when the caller evaluates the predicate through f.get).
func newSegGroupedFolder(seg *storage.Segment, attrs []data.AttrID, out Outputs) (*segGroupedFolder, error) {
	_, assign, err := seg.CoveringGroups(attrs)
	if err != nil {
		return nil, err
	}
	maxAttr := data.AttrID(0)
	for a := range assign {
		if a > maxAttr {
			maxAttr = a
		}
	}
	f := &segGroupedFolder{
		keys:   make([]colBinding, len(out.GroupBy)),
		args:   make([]folderArg, len(out.GroupArgs)),
		keyBuf: make([]data.Value, len(out.GroupBy)),
		binds:  make([]colBinding, maxAttr+1),
	}
	for a, g := range assign {
		off, _ := g.Offset(a)
		f.binds[a] = colBinding{d: g.Data, stride: g.Stride, off: off}
	}
	for i, a := range out.GroupBy {
		f.keys[i] = f.binds[a]
	}
	for i, e := range out.GroupArgs {
		attrs, ok := SumLeaves(e)
		if !ok {
			f.args[i].e = e
			continue
		}
		f.args[i].cols = make([]colBinding, len(attrs))
		for j, a := range attrs {
			f.args[i].cols[j] = f.binds[a]
		}
	}
	f.get = func(a data.AttrID) data.Value {
		b := &f.binds[a]
		return b.d[f.row*b.stride+b.off]
	}
	return f, nil
}

// fold accumulates segment row r into ga.
func (f *segGroupedFolder) fold(ga *groupedAcc, r int) {
	for i := range f.keys {
		b := &f.keys[i]
		f.keyBuf[i] = b.d[r*b.stride+b.off]
	}
	sts := ga.statesFor(f.keyBuf)
	for i := range f.args {
		a := &f.args[i]
		if a.cols == nil {
			f.row = r
			sts[i].Add(a.e.Eval(f.get))
			continue
		}
		var acc data.Value
		for j := range a.cols {
			b := &a.cols[j]
			acc += b.d[r*b.stride+b.off]
		}
		sts[i].Add(acc)
	}
}

// foldGroupedSel folds one segment's qualifying rows into ga: the absolute
// in-segment row ids listed in sel when haveSel, every row otherwise. It is
// the grouped phase-2 shared by the selection-vector strategies (column,
// hybrid, vectorized).
func foldGroupedSel(seg *storage.Segment, out Outputs, ga *groupedAcc, sel []int32, haveSel bool) error {
	f, err := newSegGroupedFolder(seg, groupedScanAttrs(out), out)
	if err != nil {
		return err
	}
	if haveSel {
		for _, r := range sel {
			f.fold(ga, int(r))
		}
		return nil
	}
	for r := 0; r < seg.Rows; r++ {
		f.fold(ga, r)
	}
	return nil
}

// genericGroupedSegmentScan is the grouped per-segment body of the generic
// interpreter: a tuple-at-a-time loop evaluating the predicate tree and the
// grouped fold through accessor indirection. The partial-result layer reuses
// it with a fresh accumulator to compute grouped SegPartials on layouts the
// fused row kernel cannot serve.
func genericGroupedSegmentScan(seg *storage.Segment, q *query.Query, out Outputs, ga *groupedAcc) error {
	f, err := newSegGroupedFolder(seg, q.AllAttrs(), out)
	if err != nil {
		return err
	}
	for r := 0; r < seg.Rows; r++ {
		f.row = r
		if q.Where != nil && !q.Where.EvalBool(f.get) {
			continue
		}
		f.fold(ga, r)
	}
	return nil
}
