package exec

import (
	"math"
	"slices"
	"sort"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// This file holds the grouped-aggregation machinery shared by every
// strategy. A per-scan accumulator (groupedAcc) hands each group a dense
// id through a key directory (keyDir: dense key - lo for a small single-key
// span, hashed otherwise) and keeps the group states in typed int64 arrays
// indexed by id: one row count shared by every aggregate, and one array per
// sum, avg, min or max aggregate. A folder (groupedFolder) binds the keys
// and aggregate arguments to one segment's layout — or one column group,
// or one encoded block — and folds a selection one VectorSize chunk at a
// time: the chunk's group ids are computed once, then each aggregate runs
// one tight loop over its argument values. Every strategy folds through
// it; only the join's joined rows (foldJoined) fold one at a time.
//
// The canonical map form, encoded group key → one expr.AggState per
// aggregate, is built once per finished accumulator by groups(), for the
// SegPartial payloads of delta repair; groupedResult reads the typed
// arrays directly. All strategies emit groups ordered ascending by key
// vector, so grouped results are bit-identical across strategies and the
// delta-repair path, and LIMIT on a grouped query is a deterministic
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

// denseMaxSlots is the widest span a single-key directory is dense for:
// 4096 ids of count plus three aggregates are 128 KiB of state, however
// few rows the fold selects.
const denseMaxSlots = 4096

// groupedAcc accumulates one scan's groups: a key directory handing out
// group ids, and per id a row count and one typed state per aggregate
// select item, in item order. A group is live once its count is positive.
// min and max arrays start at their operator's identity (MaxInt64,
// MinInt64), so a compare needs no first-value flag.
type groupedAcc struct {
	ops   []expr.AggOp
	dir   keyDir
	count []int64        // id -> rows folded
	vals  [][]data.Value // aggregate -> id -> sum (sum, avg), min or max; nil for count
}

func newGroupedAcc(out Outputs) *groupedAcc {
	return &groupedAcc{
		ops:  out.GroupOps,
		dir:  keyDir{width: len(out.GroupBy)},
		vals: make([][]data.Value, len(out.GroupOps)),
	}
}

// identity is op's starting state: the value every fold of op leaves
// unchanged.
func identity(op expr.AggOp) data.Value {
	switch op {
	case expr.AggMin:
		return math.MaxInt64
	case expr.AggMax:
		return math.MinInt64
	}
	return 0
}

// extend grows the state arrays to n ids.
func (ga *groupedAcc) extend(n int) {
	ga.count = grow(ga.count, n, 0)
	for j, op := range ga.ops {
		if op != expr.AggCount {
			ga.vals[j] = grow(ga.vals[j], n, identity(op))
		}
	}
}

// grow extends s to n values, the new ones set to fill.
func grow(s []data.Value, n int, fill data.Value) []data.Value {
	if len(s) >= n {
		return s
	}
	s = slices.Grow(s, n-len(s))
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}

// plan gives an unplanned accumulator its directory for a fold whose
// single key lies in [lo, hi]: dense when the span is below denseMaxSlots,
// hashed otherwise and for key vectors.
func (ga *groupedAcc) plan(lo, hi data.Value) {
	if n, ok := denseSpan(lo, hi, denseMaxSlots); ok && ga.dir.width == 1 {
		ga.dir = denseKeyDir(lo, n)
		ga.extend(n)
		return
	}
	ga.dir = hashedKeyDir(ga.dir.width, 0)
}

// toHashed converts a dense directory to a hashed one over its live
// groups, compacting the state arrays to the new ids.
func (ga *groupedAcc) toHashed() {
	live := ga.live()
	ga.dir.toHashed(live)
	for i, id := range live {
		ga.count[i] = ga.count[id]
		for _, s := range ga.vals {
			if s != nil {
				s[i] = s[id]
			}
		}
	}
	ga.count = ga.count[:len(live)]
	for j, s := range ga.vals {
		if s != nil {
			ga.vals[j] = s[:len(live)]
		}
	}
}

// live returns the ids of the live groups, ascending.
func (ga *groupedAcc) live() []int32 {
	var ids []int32
	for id, c := range ga.count {
		if c > 0 {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// id returns the group id of key vector kv, creating the group on first
// sight; the caller counts the row. An unplanned directory becomes hashed,
// and a dense one converts when kv falls outside its span.
func (ga *groupedAcc) id(kv []data.Value) int32 {
	d := &ga.dir
	if !d.planned() {
		*d = hashedKeyDir(d.width, 0)
	}
	if d.dense {
		if u := uint64(kv[0]) - uint64(d.lo); u < uint64(d.n) {
			return int32(u)
		}
		ga.toHashed()
	}
	id := d.intern(kv)
	if int(id) == len(ga.count) {
		ga.extend(int(id) + 1)
	}
	return id
}

// ids sets ids[i] to the group id of row i's key vector (keys holds the
// vectors back to back) and counts every row into its group. A dense
// directory that meets a key outside its span converts to hashed before
// any id of the chunk is used.
func (ga *groupedAcc) ids(keys []data.Value, ids []int32) {
	if ga.dir.dense && !ga.denseIDs(keys, ids) {
		ga.toHashed()
	}
	if !ga.dir.dense {
		w := ga.dir.width
		for i := range ids {
			ids[i] = ga.id(keys[i*w : (i+1)*w])
		}
	}
	count := ga.count
	for _, id := range ids {
		count[id]++
	}
}

// denseIDs is ids' dense loop: false, with ids partly written, when a key
// lies outside the span.
func (ga *groupedAcc) denseIDs(keys []data.Value, ids []int32) bool {
	lo, n := uint64(ga.dir.lo), uint64(ga.dir.n)
	ids = ids[:len(keys)]
	for i, k := range keys {
		u := uint64(k) - lo
		if u >= n {
			return false
		}
		ids[i] = int32(u)
	}
	return true
}

// chunkOrder is 0, 1, …, VectorSize-1: the selection that reads a chunk
// buffer in row order.
var chunkOrder = func() []int32 {
	s := make([]int32, VectorSize)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// fold folds the value of row sel[i], read through b, into group ids[i] of
// aggregate j: one loop per operator over the typed state array. Count
// aggregates have no array: the shared count already holds them.
func (ga *groupedAcc) fold(j int, ids []int32, b *colBinding, sel []int32) {
	s := ga.vals[j]
	d, stride, off := b.d, b.stride, b.off
	sel = sel[:len(ids)]
	switch ga.ops[j] {
	case expr.AggSum, expr.AggAvg:
		for i, id := range ids {
			s[id] += d[int(sel[i])*stride+off]
		}
	case expr.AggMin:
		for i, id := range ids {
			s[id] = min(s[id], d[int(sel[i])*stride+off])
		}
	case expr.AggMax:
		for i, id := range ids {
			s[id] = max(s[id], d[int(sel[i])*stride+off])
		}
	}
}

// add folds one value into group id of aggregate j; a no-op for count.
func (ga *groupedAcc) add(j int, id int32, v data.Value) {
	s := ga.vals[j]
	switch ga.ops[j] {
	case expr.AggSum, expr.AggAvg:
		s[id] += v
	case expr.AggMin:
		s[id] = min(s[id], v)
	case expr.AggMax:
		s[id] = max(s[id], v)
	}
}

// mergeAcc folds another accumulator's live groups into ga through ga's
// directory; o is not modified. An unplanned ga adopts a dense o's span.
func (ga *groupedAcc) mergeAcc(o *groupedAcc) {
	if !ga.dir.planned() && o.dir.dense {
		ga.dir = o.dir
		ga.extend(o.dir.n)
	}
	kv := make([]data.Value, 0, o.dir.width)
	for oid, c := range o.count {
		if c == 0 {
			continue
		}
		kv = o.dir.key(int32(oid), kv[:0])
		id := ga.id(kv)
		ga.count[id] += c
		for j, s := range o.vals {
			if s != nil {
				ga.add(j, id, s[oid])
			}
		}
	}
}

// mergeMap folds a canonical group map into ga through ga's directory;
// the map's states are never mutated, which is what lets cached
// SegPartial group maps be shared across repairs.
func (ga *groupedAcc) mergeMap(m map[string][]*expr.AggState) {
	var kv []data.Value
	for k, src := range m {
		kv = decodeGroupKey(k, kv[:0])
		id := ga.id(kv)
		if len(src) == 0 {
			ga.count[id]++ // a key-only group: any positive count marks it live
			continue
		}
		ga.count[id] += src[0].Count
		for j, st := range src {
			if st.Count > 0 {
				ga.add(j, id, st.Acc)
			}
		}
	}
}

// groups builds the canonical map of the live groups: encoded group key →
// one AggState per aggregate, each set by AddSummary from the typed state.
// All groups' states share two allocations.
func (ga *groupedAcc) groups() map[string][]*expr.AggState {
	live := ga.live()
	m := make(map[string][]*expr.AggState, len(live))
	w := len(ga.ops)
	block := make([]expr.AggState, len(live)*w)
	ptrs := make([]*expr.AggState, len(live)*w)
	var kv []data.Value
	var kb []byte
	for g, id := range live {
		sts := ptrs[g*w : (g+1)*w : (g+1)*w]
		for j, op := range ga.ops {
			var v data.Value
			if ga.vals[j] != nil {
				v = ga.vals[j][id]
			}
			st := &block[g*w+j]
			st.Op = op
			st.AddSummary(v, v, v, ga.count[id])
			sts[j] = st
		}
		kv = ga.dir.key(id, kv[:0])
		kb = encodeGroupKey(kb[:0], kv)
		m[string(kb)] = sts
	}
	return m
}

// groupedResult materializes the accumulated groups as a Result with one row
// per group, ordered ascending by key vector. Key items read from the
// directory; aggregate items finalize their typed states.
func groupedResult(out Outputs, ga *groupedAcc) *Result {
	live := ga.live()
	w := ga.dir.width
	keys := make([]data.Value, 0, len(live)*w)
	for _, id := range live {
		keys = ga.dir.key(id, keys)
	}
	order := make([]int, len(live))
	for i := range order {
		order[i] = i
	}
	if !ga.dir.dense { // dense ids already ascend by key
		sort.Slice(order, func(a, b int) bool {
			ka, kb := keys[order[a]*w:order[a]*w+w], keys[order[b]*w:order[b]*w+w]
			for i := range ka {
				if ka[i] != kb[i] {
					return ka[i] < kb[i]
				}
			}
			return false
		})
	}
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
		Rows: len(live),
		Data: make([]data.Value, 0, len(live)*len(out.Labels)),
	}
	for _, o := range order {
		id, kv := live[o], keys[o*w:o*w+w]
		for i, ki := range out.ItemKey {
			if ki >= 0 {
				res.Data = append(res.Data, kv[ki])
				continue
			}
			j := aggIdx[i]
			st := expr.AggState{Op: ga.ops[j], Count: ga.count[id]}
			if ga.vals[j] != nil {
				st.Acc = ga.vals[j][id]
			}
			res.Data = append(res.Data, st.Result())
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

// colBinding is one attribute's resolved location inside a pinned segment:
// row r's value is d[r*stride+off].
type colBinding struct {
	d      []data.Value
	stride int
	off    int
}

func (b *colBinding) at(r int) data.Value { return b.d[r*b.stride+b.off] }

// bindingOf returns the binding of attribute a in g, which stores it.
func bindingOf(g *storage.ColumnGroup, a data.AttrID) colBinding {
	off, _ := g.Offset(a)
	return colBinding{d: g.Data, stride: g.Stride, off: off}
}

// bindAttrs resolves attrs to positional bindings against assign (a
// segment's covering-group assignment), in attrs order.
func bindAttrs(assign map[data.AttrID]*storage.ColumnGroup, attrs []data.AttrID) []colBinding {
	out := make([]colBinding, len(attrs))
	for i, a := range attrs {
		out[i] = bindingOf(assign[a], a)
	}
	return out
}

// groupedFolder folds selections of one layout's rows into a groupedAcc.
// Keys and aggregate arguments read through binds (attribute id →
// binding): pure column sums by position, other argument expressions (and
// the generic strategy's predicate) through the get accessor at row.
type groupedFolder struct {
	keys  []data.AttrID
	args  []folderArg
	binds []colBinding
	row   int
	get   expr.Accessor

	lo, hi  data.Value // the single key's exact bounds, when bounded
	bounded bool

	sel  []int32      // rows queued by push
	ids  []int32      // the chunk's group ids, grown to the largest chunk
	kbuf []data.Value // the chunk's key vectors, back to back
	vals []data.Value // the chunk's values of one argument
}

// folderArg is one aggregate: its operator, and its argument as a sum of
// bound columns or (cols nil) an expression read through the accessor.
type folderArg struct {
	op   expr.AggOp
	cols []data.AttrID
	e    expr.Expr
}

// keyBounds reads the exact bounds of an attribute's values, as
// storage.Segment and storage.ColumnGroup do from their zone maps.
type keyBounds interface {
	Bounds(a data.AttrID) (lo, hi data.Value, ok bool)
}

// newGroupedFolder returns a folder of out's groups. Each attribute of
// attrs (the keys and aggregate-argument attributes, and the where
// attributes when the caller evaluates the predicate through f.get) is
// bound to the group groupOf returns for it; with groupOf nil the caller
// binds them itself. A single key's span comes from bounds when it has
// them, from the first chunk of keys otherwise.
func newGroupedFolder(out Outputs, attrs []data.AttrID, groupOf func(data.AttrID) *storage.ColumnGroup, bounds keyBounds) *groupedFolder {
	f := &groupedFolder{
		keys:  out.GroupBy,
		args:  make([]folderArg, len(out.GroupArgs)),
		binds: make([]colBinding, maxAttr(attrs)+1),
	}
	if groupOf != nil {
		for _, a := range attrs {
			f.binds[a] = bindingOf(groupOf(a), a)
		}
	}
	if bounds != nil && len(f.keys) == 1 {
		f.lo, f.hi, f.bounded = bounds.Bounds(f.keys[0])
	}
	for j, e := range out.GroupArgs {
		f.args[j].op = out.GroupOps[j]
		if attrs, ok := SumLeaves(e); ok {
			f.args[j].cols = attrs
		} else {
			f.args[j].e = e
		}
	}
	f.get = func(a data.AttrID) data.Value { return f.binds[a].at(f.row) }
	return f
}

// maxAttr returns the largest attribute id in attrs, 0 for none.
func maxAttr(attrs []data.AttrID) data.AttrID {
	m := data.AttrID(0)
	for _, a := range attrs {
		m = max(m, a)
	}
	return m
}

// segmentFolder binds attrs against seg's covering groups; see
// newGroupedFolder.
func segmentFolder(seg *storage.Segment, attrs []data.AttrID, out Outputs) (*groupedFolder, error) {
	_, assign, err := seg.CoveringGroups(attrs)
	if err != nil {
		return nil, err
	}
	return newGroupedFolder(out, attrs, func(a data.AttrID) *storage.ColumnGroup { return assign[a] }, seg), nil
}

// columnGroupFolder binds out's groups against one covering column group,
// the fused row kernels' layout.
func columnGroupFolder(g *storage.ColumnGroup, out Outputs) *groupedFolder {
	return newGroupedFolder(out, g.Attrs, func(data.AttrID) *storage.ColumnGroup { return g }, g)
}

// push queues row r; every full chunk of queued rows folds at once.
func (f *groupedFolder) push(ga *groupedAcc, r int) {
	f.sel = append(f.sel, int32(r))
	if len(f.sel) == VectorSize {
		f.flush(ga)
	}
}

// flush folds the queued rows.
func (f *groupedFolder) flush(ga *groupedAcc) {
	if len(f.sel) > 0 {
		f.foldChunk(ga, f.sel)
		f.sel = f.sel[:0]
	}
}

// foldSel folds the rows listed in sel, one chunk at a time.
func (f *groupedFolder) foldSel(ga *groupedAcc, sel []int32) {
	for len(sel) > 0 {
		n := min(len(sel), VectorSize)
		f.foldChunk(ga, sel[:n])
		sel = sel[n:]
	}
}

// foldRange folds rows [lo, hi).
func (f *groupedFolder) foldRange(ga *groupedAcc, lo, hi int) {
	for r := lo; r < hi; r++ {
		f.push(ga, r)
	}
	f.flush(ga)
}

// foldChunk folds at most VectorSize rows: it gathers their key vectors,
// turns them into group ids once (planning ga's directory on first use),
// then folds each aggregate's argument values in one typed loop.
func (f *groupedFolder) foldChunk(ga *groupedAcc, sel []int32) {
	n, w := len(sel), len(f.keys)
	if len(f.ids) < n {
		f.ids, f.kbuf, f.vals = make([]int32, n), make([]data.Value, n*w), make([]data.Value, n)
	}
	keys := f.kbuf[:n*w]
	for j, a := range f.keys {
		b := &f.binds[a]
		for i, r := range sel {
			keys[i*w+j] = b.at(int(r))
		}
	}
	if !ga.dir.planned() {
		lo, hi := f.lo, f.hi
		if !f.bounded && w == 1 {
			lo, hi = keys[0], keys[0]
			for _, k := range keys {
				lo, hi = min(lo, k), max(hi, k)
			}
		}
		ga.plan(lo, hi)
	}
	ids := f.ids[:n]
	ga.ids(keys, ids)
	for j := range f.args {
		a := &f.args[j]
		if a.op == expr.AggCount {
			continue
		}
		if len(a.cols) == 1 {
			ga.fold(j, ids, &f.binds[a.cols[0]], sel)
			continue
		}
		vals := f.vals[:n]
		if a.cols != nil {
			b := &f.binds[a.cols[0]]
			for i, r := range sel {
				vals[i] = b.at(int(r))
			}
			for _, c := range a.cols[1:] {
				b := &f.binds[c]
				for i, r := range sel {
					vals[i] += b.at(int(r))
				}
			}
		} else {
			for i, r := range sel {
				f.row = int(r)
				vals[i] = a.e.Eval(f.get)
			}
		}
		ga.fold(j, ids, &colBinding{d: vals, stride: 1}, chunkOrder[:n])
	}
}

// foldGroupedSel folds one segment's qualifying rows into ga: the absolute
// in-segment row ids listed in sel when haveSel, every row otherwise. It is
// the grouped phase-2 shared by the selection-vector strategies (column,
// hybrid).
func foldGroupedSel(seg *storage.Segment, out Outputs, ga *groupedAcc, sel []int32, haveSel bool) error {
	f, err := segmentFolder(seg, groupedScanAttrs(out), out)
	if err != nil {
		return err
	}
	if haveSel {
		f.foldSel(ga, sel)
	} else {
		f.foldRange(ga, 0, seg.Rows)
	}
	return nil
}

// genericGroupedSegmentScan is the grouped per-segment body of the generic
// interpreter: a tuple-at-a-time loop evaluating the predicate tree through
// accessor indirection, folding the qualifying rows chunk by chunk. The
// partial-result layer reuses it with a fresh accumulator to compute
// grouped SegPartials on layouts the fused row kernel cannot serve.
func genericGroupedSegmentScan(seg *storage.Segment, q *query.Query, out Outputs, ga *groupedAcc) error {
	f, err := segmentFolder(seg, q.AllAttrs(), out)
	if err != nil {
		return err
	}
	for r := 0; r < seg.Rows; r++ {
		f.row = r
		if q.Where != nil && !q.Where.EvalBool(f.get) {
			continue
		}
		f.push(ga, r)
	}
	f.flush(ga)
	return nil
}
