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

// This file holds the aggregation machinery every aggregate output shares,
// grouped or not. A per-scan accumulator (groupedAcc) hands each group a
// dense id through a key directory (keyDir: dense key - lo for a small
// single-key span, hashed otherwise) and keeps the group states in typed
// int64 arrays indexed by id: one row count shared by every aggregate, and
// one array per sum, avg, min or max aggregate. A scalar aggregate is the
// group with no keys: its one group has id 0, every row folds into it,
// and it is a result row even when no row qualifies. A folder
// (groupedFolder) binds the keys and aggregate arguments to one segment's
// layout — or one column group, or one encoded block — and folds a
// selection one VectorSize chunk at a time: the chunk's group ids are
// computed once, each aggregate's argument values are built the way the
// strategy builds them, then each aggregate runs one tight loop over them.
// Every strategy, the join's joined rows and the merges of partials update
// aggregate state through this one accumulator.
//
// The canonical forms of delta repair's SegPartial payloads — encoded group
// key → one expr.AggState per aggregate, or for no keys one AggState per
// aggregate — are built once per finished accumulator by groups() and
// states(); groupedResult reads the typed arrays directly. All strategies
// emit groups ordered ascending by key vector, so grouped results are
// bit-identical across strategies and the delta-repair path, and LIMIT on a
// grouped query is a deterministic prefix of groups.

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
// MinInt64), so a compare needs no first-value flag; a state is read only
// for a group that has rows. With no keys the directory is dense over the
// one id 0.
type groupedAcc struct {
	ops   []expr.AggOp
	dir   keyDir
	count []int64        // id -> rows folded
	vals  [][]data.Value // aggregate -> id -> sum (sum, avg), min or max; nil for count
}

func newGroupedAcc(out Outputs) *groupedAcc {
	ga := &groupedAcc{
		ops:  out.GroupOps,
		dir:  keyDir{width: len(out.GroupBy)},
		vals: make([][]data.Value, len(out.GroupOps)),
	}
	if ga.scalar() {
		ga.dir = keyDir{dense: true, n: 1}
		ga.extend(1)
	}
	return ga
}

// scalar reports whether ga has no group keys: every row folds into id 0.
func (ga *groupedAcc) scalar() bool { return ga.dir.width == 0 }

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
	if ga.scalar() {
		return 0
	}
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
// aggregate j — into group 0 when ids is nil, the scalar case, through one
// register accumulator: one loop per operator over the typed state array.
// Count aggregates have no array: the shared count already holds them.
func (ga *groupedAcc) fold(j int, ids []int32, b *colBinding, sel []int32) {
	s := ga.vals[j]
	d, stride, off := b.d, b.stride, b.off
	if ids == nil {
		acc := s[0]
		switch ga.ops[j] {
		case expr.AggSum, expr.AggAvg:
			for _, r := range sel {
				acc += d[int(r)*stride+off]
			}
		case expr.AggMin:
			for _, r := range sel {
				acc = min(acc, d[int(r)*stride+off])
			}
		case expr.AggMax:
			for _, r := range sel {
				acc = max(acc, d[int(r)*stride+off])
			}
		}
		s[0] = acc
		return
	}
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
		ga.mergeStates(id, src)
	}
}

// mergeStates folds one group's canonical states (one per aggregate) into
// group id; a scalar SegPartial's States merge into id 0. src is not
// mutated.
func (ga *groupedAcc) mergeStates(id int32, src []*expr.AggState) {
	if len(src) == 0 {
		return
	}
	ga.count[id] += src[0].Count
	for j, st := range src {
		if st.Count > 0 {
			ga.add(j, id, st.Acc)
		}
	}
}

// groups builds the canonical map of the live groups: encoded group key →
// one AggState per aggregate. All groups' states share two allocations.
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
		ga.stateOf(id, block[g*w:(g+1)*w], sts)
		kv = ga.dir.key(id, kv[:0])
		kb = encodeGroupKey(kb[:0], kv)
		m[string(kb)] = sts
	}
	return m
}

// states builds a scalar accumulator's canonical form: one AggState per
// aggregate, each empty when no row was folded.
func (ga *groupedAcc) states() []*expr.AggState {
	sts := make([]*expr.AggState, len(ga.ops))
	ga.stateOf(0, make([]expr.AggState, len(ga.ops)), sts)
	return sts
}

// stateOf sets block[j], and points sts[j] at it, to group id's state of
// aggregate j, as AddSummary folds it from the typed state.
func (ga *groupedAcc) stateOf(id int32, block []expr.AggState, sts []*expr.AggState) {
	for j, op := range ga.ops {
		var v data.Value
		if ga.vals[j] != nil {
			v = ga.vals[j][id]
		}
		st := &block[j]
		st.Op = op
		st.AddSummary(v, v, v, ga.count[id])
		sts[j] = st
	}
}

// groupedResult materializes the accumulated groups as a Result with one row
// per group, ordered ascending by key vector — for no keys, exactly one
// row. Key items read from the directory; aggregate items finalize their
// typed states.
func groupedResult(out Outputs, ga *groupedAcc) *Result {
	live := ga.live()
	if ga.scalar() {
		live = []int32{0}
	}
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
			if ga.vals[j] != nil && st.Count > 0 {
				st.Acc = ga.vals[j][id]
			}
			res.Data = append(res.Data, st.Result())
		}
	}
	return res
}

// groupedScanAttrs returns the attributes a grouped fold must read: the
// group keys plus every attribute of an aggregate argument whose values
// are folded (a count never reads its argument). Predicate columns are
// excluded — the caller's selection machinery has already applied them.
func groupedScanAttrs(out Outputs) []data.AttrID {
	attrs := append([]data.AttrID(nil), out.GroupBy...)
	for j, e := range out.GroupArgs {
		if out.GroupOps[j] != expr.AggCount {
			attrs = e.Attrs(attrs)
		}
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
// binding): column arguments directly, sums of columns by position, other
// argument expressions (and the generic strategy's predicate) through the
// get accessor at row.
type groupedFolder struct {
	keys  []data.AttrID
	args  []folderArg
	binds []colBinding
	row   int
	get   expr.Accessor

	lo, hi  data.Value // the single key's exact bounds, when bounded
	bounded bool

	// pairwise, set by the column-late strategy, builds a sum of columns
	// by late materialization: every column is gathered into an
	// intermediate and every addition writes a fresh one, each word
	// counted into stats (which may be nil).
	pairwise bool
	stats    *StrategyStats

	// tuple, set for a folder bound to one strided column group (the row
	// strategy's layout), is the group whose mini-tuples foldSel reads a
	// chunk's selection from in one pass, tuple by tuple: the keys and
	// column arguments are copied out of each (the words at offsets toffs),
	// and each sum of columns is summed across it (the words at offsets
	// tsums[k]), into one row of the chunk's tuple block tbuf. Chunk row i
	// holds its copies, then its sums, from tbuf[i*tw]; attribute a's
	// column is tpos[a]-1, and tcols binds each column. The folds read
	// those columns in chunk order.
	tuple *storage.ColumnGroup
	toffs []int
	tsums [][]int
	tw    int
	tpos  []int
	tbuf  []data.Value
	tcols []colBinding

	ids  []int32      // the chunk's group ids, grown to the largest chunk
	kbuf []data.Value // the chunk's key vectors, back to back
	vals []data.Value // the chunk's values of one argument
	tmp  []data.Value // a sum's scratch: one group's share, or the intermediates
}

// folderArg is one aggregate: its operator, and its argument as a sum of
// bound columns or (cols nil) an expression read through the accessor.
// parts splits a sum of several columns by the column group storing them,
// when the folder is bound to groups; tcol is the sum's tuple column + 1
// on a tuple folder.
type folderArg struct {
	op    expr.AggOp
	cols  []data.AttrID
	parts []sumPart
	tcol  int
	e     expr.Expr
}

// sumPart is the share of a sum of columns that one column group stores:
// the word offsets of its summed columns within the group's mini-tuples.
type sumPart struct {
	g    *storage.ColumnGroup
	offs []int
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
		a := &f.args[j]
		a.op = out.GroupOps[j]
		cols, ok := SumLeaves(e)
		if !ok {
			a.e = e
			continue
		}
		a.cols = cols
		if groupOf == nil || len(cols) < 2 || a.op == expr.AggCount {
			continue
		}
		for _, c := range cols {
			g := groupOf(c)
			off, _ := g.Offset(c)
			i := 0
			for i < len(a.parts) && a.parts[i].g != g {
				i++
			}
			if i == len(a.parts) {
				a.parts = append(a.parts, sumPart{g: g})
			}
			a.parts[i].offs = append(a.parts[i].offs, off)
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
// the fused row kernels' layout: a strided group's tuples are read row by
// row.
func columnGroupFolder(g *storage.ColumnGroup, out Outputs) *groupedFolder {
	f := newGroupedFolder(out, groupedScanAttrs(out), func(data.AttrID) *storage.ColumnGroup { return g }, g)
	if g.Stride == 1 {
		return f
	}
	f.tuple = g
	f.tpos = make([]int, len(f.binds))
	read := func(a data.AttrID) {
		if f.tpos[a] == 0 {
			off, _ := g.Offset(a)
			f.toffs = append(f.toffs, off)
			f.tpos[a] = len(f.toffs)
		}
	}
	for _, a := range f.keys {
		read(a)
	}
	for j := range f.args {
		if a := &f.args[j]; a.op != expr.AggCount && len(a.cols) == 1 {
			read(a.cols[0])
		}
	}
	for j := range f.args { // the sums follow every copied column
		if a := &f.args[j]; a.op != expr.AggCount && a.parts != nil {
			f.tsums = append(f.tsums, a.parts[0].offs)
			a.tcol = len(f.toffs) + len(f.tsums)
		}
	}
	f.tw = len(f.toffs) + len(f.tsums)
	f.tbuf = make([]data.Value, f.tw*VectorSize)
	f.tcols = make([]colBinding, f.tw)
	for k := range f.tcols {
		f.tcols[k] = colBinding{d: f.tbuf, stride: f.tw, off: k}
	}
	return f
}

// column returns the binding attribute a is read through in the chunk sel,
// and the selection to read it with: the tuple columns in chunk order, or
// a's own binding at sel's rows.
func (f *groupedFolder) column(a data.AttrID, sel []int32) (*colBinding, []int32) {
	if f.tuple != nil {
		return &f.tcols[f.tpos[a]-1], chunkOrder[:len(sel)]
	}
	return &f.binds[a], sel
}

// foldSel folds the rows listed in sel, one chunk at a time. A tuple
// folder first copies each chunk's tuples into its tuple block in one
// loop.
func (f *groupedFolder) foldSel(ga *groupedAcc, sel []int32) {
	for len(sel) > 0 {
		n := min(len(sel), VectorSize)
		if f.tuple != nil {
			f.copyTuples(sel[:n])
		}
		f.foldChunk(ga, sel[:n])
		sel = sel[n:]
	}
}

// copyTuples copies the keys and column arguments of the tuples listed in
// sel, and sums each sum of columns across them, into rows 0, 1, … of the
// tuple block.
func (f *groupedFolder) copyTuples(sel []int32) {
	d, stride, tw := f.tuple.Data, f.tuple.Stride, f.tw
	nc := len(f.toffs)
	for i, r := range sel {
		row := f.tbuf[i*tw : i*tw+tw]
		tup := d[int(r)*stride:]
		for k, off := range f.toffs {
			row[k] = tup[off]
		}
		for k, offs := range f.tsums {
			var v data.Value
			for _, o := range offs {
				v += tup[o]
			}
			row[nc+k] = v
		}
	}
}

// foldRange folds rows [lo, hi).
func (f *groupedFolder) foldRange(ga *groupedAcc, lo, hi int) {
	sel := make([]int32, VectorSize)
	for c := lo; c < hi; c += VectorSize {
		n := min(VectorSize, hi-c)
		for i := range sel[:n] {
			sel[i] = int32(c + i)
		}
		f.foldSel(ga, sel[:n])
	}
}

// scratch returns a buffer of n values backed by *buf, grown as needed.
func scratch(buf *[]data.Value, n int) []data.Value {
	if len(*buf) < n {
		*buf = make([]data.Value, n)
	}
	return (*buf)[:n]
}

// foldChunk folds at most VectorSize rows: it gathers their key vectors,
// turns them into group ids once (planning ga's directory on first use) —
// or, with no keys, counts them into group 0 — then folds each
// aggregate's argument values in one typed loop.
func (f *groupedFolder) foldChunk(ga *groupedAcc, sel []int32) {
	n, w := len(sel), len(f.keys)
	var ids []int32
	if w == 0 {
		ga.count[0] += int64(n)
	} else {
		if len(f.ids) < n {
			f.ids, f.kbuf = make([]int32, n), make([]data.Value, n*w)
		}
		keys := f.kbuf[:n*w]
		for j, a := range f.keys {
			b, rows := f.column(a, sel)
			for i, r := range rows {
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
		ids = f.ids[:n]
		ga.ids(keys, ids)
	}
	for j := range f.args {
		a := &f.args[j]
		if a.op == expr.AggCount {
			continue
		}
		if len(a.cols) == 1 {
			b, rows := f.column(a.cols[0], sel)
			ga.fold(j, ids, b, rows)
			continue
		}
		if a.tcol > 0 {
			ga.fold(j, ids, &f.tcols[a.tcol-1], chunkOrder[:n])
			continue
		}
		ga.fold(j, ids, &colBinding{d: f.argVals(a, sel), stride: 1}, chunkOrder[:n])
	}
}

// argVals builds the values of a's argument at the rows of sel: an
// expression through the accessor, and a sum of columns the strategy's
// way — pairwise through materialized intermediates (column-late), one
// fused offset-sum pass per column group that stores a share of it
// (hybrid and generic read each tuple's share at once), or one column at
// a time over unbound groups (encoded blocks). A tuple folder's sums are
// already in its tuple columns.
func (f *groupedFolder) argVals(a *folderArg, sel []int32) []data.Value {
	n := len(sel)
	vals := scratch(&f.vals, n)
	switch {
	case a.cols == nil:
		for i, r := range sel {
			f.row = int(r)
			vals[i] = a.e.Eval(f.get)
		}
	case f.pairwise:
		return f.pairwiseSum(a.cols, sel)
	case a.parts != nil:
		SumOffsetsSel(a.parts[0].g, a.parts[0].offs, sel, vals)
		for _, p := range a.parts[1:] {
			tmp := scratch(&f.tmp, n)
			SumOffsetsSel(p.g, p.offs, sel, tmp)
			for i := range vals {
				vals[i] += tmp[i]
			}
		}
	default:
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
	}
	return vals
}

// pairwiseSum is late materialization's sum of columns (§3.3): each
// column's values at sel are gathered into an intermediate column, and
// a+b+c materializes a+b before adding c — the intermediate traffic the
// cost model charges the column-late strategy for.
func (f *groupedFolder) pairwiseSum(cols []data.AttrID, sel []int32) []data.Value {
	n := len(sel)
	arena := scratch(&f.tmp, (2*len(cols)-1)*n)
	gather := func(c data.AttrID, dst []data.Value) {
		b := &f.binds[c]
		for i, r := range sel {
			dst[i] = b.at(int(r))
		}
	}
	acc := arena[:n]
	gather(cols[0], acc)
	for k, c := range cols[1:] {
		col := arena[(2*k+1)*n : (2*k+2)*n]
		gather(c, col)
		sum := arena[(2*k+2)*n : (2*k+3)*n]
		for i := range sum {
			sum[i] = acc[i] + col[i]
		}
		acc = sum
	}
	if f.stats != nil {
		f.stats.IntermediateWords += len(arena)
	}
	return acc
}

// foldGroupedSel folds one segment's qualifying rows into ga: the absolute
// in-segment row ids listed in sel when haveSel, every row otherwise. It is
// the aggregate phase 2 shared by the selection-vector strategies (column,
// hybrid); pairwise selects the column strategy's late-materialized sums.
func foldGroupedSel(seg *storage.Segment, out Outputs, ga *groupedAcc, sel []int32, haveSel, pairwise bool, stats *StrategyStats) error {
	f, err := segmentFolder(seg, groupedScanAttrs(out), out)
	if err != nil {
		return err
	}
	f.pairwise, f.stats = pairwise, stats
	if haveSel {
		f.foldSel(ga, sel)
	} else {
		f.foldRange(ga, 0, seg.Rows)
	}
	return nil
}

// genericGroupedSegmentScan is the aggregate per-segment body of the
// generic interpreter, grouped or not: a tuple-at-a-time loop evaluating
// the predicate tree through accessor indirection, folding the qualifying
// rows chunk by chunk. The partial-result layer reuses it with a fresh
// accumulator to compute SegPartials on layouts and predicate shapes no
// kernel serves.
func genericGroupedSegmentScan(seg *storage.Segment, q *query.Query, out Outputs, ga *groupedAcc) error {
	f, err := segmentFolder(seg, q.AllAttrs(), out)
	if err != nil {
		return err
	}
	sel := make([]int32, 0, VectorSize)
	for lo := 0; lo < seg.Rows; lo += VectorSize {
		sel = sel[:0]
		for r := lo; r < min(lo+VectorSize, seg.Rows); r++ {
			f.row = r
			if q.Where == nil || q.Where.EvalBool(f.get) {
				sel = append(sel, int32(r))
			}
		}
		f.foldSel(ga, sel)
	}
	return nil
}
