package exec

import (
	"fmt"
	"math"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// This file is the streaming hash-join operator: the first multi-relation
// code path in the engine, attached at the pipeline seam exec.go documents
// ("a join is another partial-producing operator").
//
// ExecJoin serves SELECT ... FROM L JOIN R ON L.x = R.y with the query's
// attributes in the combined namespace (left [0, nL), right [nL, nL+nR)).
// The WHERE conjunction splits by side: left-only terms filter (and
// zone-map prune) the left relation, right-only terms the right, and mixed
// terms become a residual predicate evaluated per joined row. One side —
// the build side — is scanned segment-at-a-time into a hash table indexed
// by a key directory (dense or hashed, see joinIndex); the other — the
// probe side — streams through the standard per-segment pipeline (pruning,
// pinning, fan-out, limit early-exit), and each match folds straight into
// the query's projection/aggregate/group outputs, so joined aggregates
// never materialize the full join. Both sides filter with the
// selection-vector kernels whenever their conjunction splits and read
// attributes through positional bindings; the interpreter evaluates only
// per-side predicates that do not split and the residual.
//
// The build side is chosen greedily from the zone maps: each side's
// candidate row count is the sum of its segments' rows after
// predicate-clipped pruning, and the smaller side builds. Aggregate merges
// are commutative and associative, so for aggregate and grouped shapes
// either side may build; projection and expression shapes must emit rows
// in left-major order (probe = left), so they always build the right side.
// When pruning empties the build side — or the build filter leaves an
// empty hash table — the probe side is never scanned at all.
//
// ExecJoinDelta runs the same plan (planJoin) and probe kernel per probe
// segment for delta repair: aggregate and grouped joins keep one partial
// per probe segment, so a probe-side append folds only the appended rows
// (see the partials contract in partials.go).

// joinSplit is the per-side decomposition of a join query's WHERE clause.
// Right-side zone-map predicates are rebased to the right relation's local
// attribute ids; the predicate trees keep combined ids and are evaluated
// through rebasing accessors.
type joinSplit struct {
	leftPred  expr.Pred // conjunction terms over left attributes only
	rightPred expr.Pred // terms over right attributes only (combined ids)
	residual  expr.Pred // mixed terms, evaluated per joined row

	leftCols   []ColPred // prunable left terms (left-local ids)
	leftSplit  bool
	rightCols  []ColPred // prunable right terms (right-local ids)
	rightSplit bool
}

// conj rebuilds a conjunction from its terms: nil for none, the term
// itself for one, an n-ary And otherwise.
func conj(terms []expr.Pred) expr.Pred {
	switch len(terms) {
	case 0:
		return nil
	case 1:
		return terms[0]
	}
	return &expr.And{Terms: terms}
}

// splitJoinWhere splits where into per-side and residual conjuncts. A
// term referencing no attributes at all (a constant comparison) lands on
// the left side; a non-conjunctive top level (a single Or, say) is one
// term and splits by whichever side its attributes touch.
func splitJoinWhere(where expr.Pred, nL int) joinSplit {
	var js joinSplit
	if where == nil {
		js.leftSplit, js.rightSplit = true, true
		return js
	}
	terms := []expr.Pred{where}
	if and, ok := where.(*expr.And); ok {
		terms = and.Terms
	}
	var lTerms, rTerms, xTerms []expr.Pred
	for _, t := range terms {
		attrs := t.Attrs(nil)
		allL, allR := true, true
		for _, a := range attrs {
			if a < nL {
				allR = false
			} else {
				allL = false
			}
		}
		switch {
		case allL:
			lTerms = append(lTerms, t)
		case allR:
			rTerms = append(rTerms, t)
		default:
			xTerms = append(xTerms, t)
		}
	}
	js.leftPred = conj(lTerms)
	js.rightPred = conj(rTerms)
	js.residual = conj(xTerms)
	js.leftCols, js.leftSplit = splitSide(js.leftPred, 0)
	js.rightCols, js.rightSplit = splitSide(js.rightPred, nL)
	return js
}

// splitSide splits one side's conjunction into zone-map predicates rebased
// by -base to that relation's local attribute ids.
func splitSide(p expr.Pred, base int) ([]ColPred, bool) {
	cols, ok := SplitConjunction(p)
	if !ok {
		return nil, false
	}
	for i := range cols {
		cols[i].Attr -= base
	}
	return cols, true
}

// JoinSidePreds exposes the per-side zone-map predicates of a join query
// for fingerprinting: the serving layer computes one touch fingerprint per
// input relation (left first), each from its own side's predicate-clipped
// candidate segment set, and combines them order-sensitively. nL is the
// left relation's schema width. splittable=false means that side's
// candidate set must conservatively include every non-empty segment.
func JoinSidePreds(q *query.Query, nL int) (left []ColPred, leftSplit bool, right []ColPred, rightSplit bool) {
	js := splitJoinWhere(q.Where, nL)
	return js.leftCols, js.leftSplit, js.rightCols, js.rightSplit
}

// joinSide is one input of the join as the operator reads it: the relation,
// where its attributes start in the combined namespace, its join key, and
// its share of the WHERE conjunction.
type joinSide struct {
	rel   *storage.Relation
	base  int         // combined id of the relation's attribute 0
	key   data.AttrID // join key, local id
	pred  expr.Pred   // this side's conjunction terms (combined ids)
	cols  []ColPred   // pred split into column predicates (local ids)
	split bool        // pred split: cols prune and filter, pred is unused
}

// pruned reports whether the side's zone-map predicates rule seg out.
func (s *joinSide) pruned(seg *storage.Segment) bool {
	return s.split && len(s.cols) > 0 && segPruned(seg, s.cols)
}

// candidates is the greedy ordering signal: the side's row count after
// zone-map pruning with its predicate-clipped bounds, plus the count of
// non-empty segments the pruning excluded.
func (s *joinSide) candidates() (rows, pruned int) {
	for _, seg := range s.rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		if s.pruned(seg) {
			pruned++
			continue
		}
		rows += seg.Rows
	}
	return rows, pruned
}

// scanAttrs is what one segment scan of the side binds, in local ids: the
// join key, the filter's inputs, and the side's share of need (combined
// ids read after the join).
func (s *joinSide) scanAttrs(need []data.AttrID) []data.AttrID {
	combined := append([]data.AttrID(nil), need...)
	if s.pred != nil {
		combined = s.pred.Attrs(combined)
	}
	out := []data.AttrID{s.key}
	for _, a := range combined {
		if a -= s.base; a >= 0 && a < s.rel.Schema.NumAttrs() {
			out = append(out, a)
		}
	}
	return data.SortedUnique(out)
}

// sideFilter is one side's filter bound to one pinned segment: the filter
// kernels when the side's conjunction splits, the interpreter over pred
// otherwise, nothing when the side has no filter.
type sideFilter struct {
	kernel groupFilter
	pred   expr.Pred    // non-splittable conjunction, combined ids
	binds  []colBinding // local id -> binding, pred's inputs only
	base   int
}

// bindFilter binds the side's filter to a segment whose covering-group
// assignment covers scanAttrs.
func (s *joinSide) bindFilter(assign map[data.AttrID]*storage.ColumnGroup) *sideFilter {
	if s.split {
		return &sideFilter{kernel: bindGroupFilter(assign, s.cols)}
	}
	f := &sideFilter{pred: s.pred, base: s.base}
	if s.pred != nil {
		local := s.pred.Attrs(nil)
		for i := range local {
			local[i] -= s.base
		}
		f.binds = make([]colBinding, s.rel.Schema.NumAttrs())
		for i, b := range bindAttrs(assign, local) {
			f.binds[local[i]] = b
		}
	}
	return f
}

// sel returns the rows of [lo, hi) that pass the filter, reusing buf.
func (f *sideFilter) sel(lo, hi int, buf []int32) []int32 {
	if len(f.kernel) > 0 {
		return f.kernel.sel(lo, hi-lo, buf)
	}
	sel := buf[:0]
	if f.pred == nil {
		for r := lo; r < hi; r++ {
			sel = append(sel, int32(r))
		}
		return sel
	}
	r := 0
	get := func(a data.AttrID) data.Value { return f.binds[a-f.base].at(r) }
	for r = lo; r < hi; r++ {
		if f.pred.EvalBool(get) {
			sel = append(sel, int32(r))
		}
	}
	return sel
}

// joinHashTable is the build side materialized for probing: the tuples
// passing the build-side filter in (segment, row) order, their join keys,
// the need-only arena holding only the attributes the query reads after
// the join, the key directory over them, and the candidate segments they
// were read from.
type joinHashTable struct {
	width int            // stored attributes per tuple
	arena []data.Value   // width words per tuple, insertion order
	keys  []data.Value   // join key per tuple, insertion order
	idx   *joinIndex     // key -> tuples, each chain in insertion order
	deps  map[int]uint64 // build candidate segment index -> version
}

// buildJoinHashTable scans the side's segments in order (skipping empty
// and zone-map-pruned ones), filters each with the side's kernels and
// appends the survivors' keys and need attributes (combined ids, all on
// this side, in arena slot order) to the table, recording each scanned
// segment's version in deps. Build-side segments count
// into stats' scan/prune/fault counters but not its Touched list — the
// touch set is per-relation and a join spans two (see ExecJoin). probeRows
// is the probe side's candidate row count, which sizes the directory.
func buildJoinHashTable(s *joinSide, need []data.AttrID, probeRows int, stats *StrategyStats) (*joinHashTable, error) {
	ht := &joinHashTable{width: len(need), deps: make(map[int]uint64)}
	scan := s.scanAttrs(need)
	local := make([]data.AttrID, 0, len(need)+1)
	local = append(local, s.key)
	for _, a := range need {
		local = append(local, a-s.base)
	}
	buf := make([]int32, 0, VectorSize)
	for si, seg := range s.rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		if s.pruned(seg) {
			stats.SegmentsPruned++
			continue
		}
		ht.deps[si] = seg.Version()
		faulted, err := seg.Acquire()
		if err != nil {
			return nil, err
		}
		if faulted {
			stats.SegmentsFaulted++
		}
		stats.SegmentsScanned++
		seg.Touch()
		err = func() error {
			defer seg.Release()
			_, assign, err := seg.CoveringGroups(scan)
			if err != nil {
				return err
			}
			binds := bindAttrs(assign, local)
			filter := s.bindFilter(assign)
			for lo := 0; lo < seg.Rows; lo += VectorSize {
				sel := filter.sel(lo, min(lo+VectorSize, seg.Rows), buf)
				if len(ht.keys)+len(sel) > math.MaxInt32 {
					return fmt.Errorf("exec: join build side exceeds %d rows", math.MaxInt32)
				}
				for _, r := range sel {
					ht.keys = append(ht.keys, binds[0].at(int(r)))
				}
				base := len(ht.arena)
				ht.arena = append(ht.arena, make([]data.Value, len(sel)*ht.width)...)
				for j := range binds[1:] {
					b := &binds[1+j]
					for i, r := range sel {
						ht.arena[base+i*ht.width+j] = b.at(int(r))
					}
				}
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	ht.idx = newJoinIndex(ht.keys, joinKeyDir(ht.keys, probeRows))
	return ht, nil
}

// joinIndex maps a join key to the build tuples that carry it: the key
// directory hands out each key's id, head holds each id's first tuple and
// next chains a tuple to the following one with the same key, -1 ending
// both. Chains are linked back to front, so walking one yields tuples in
// insertion order. With a dense directory a probe key outside the span or
// in a gap is rejected by one bounds check or one load.
type joinIndex struct {
	dir  keyDir
	head []int32 // id -> first tuple
	next []int32 // tuple -> next tuple with the same key
}

// joinKeyDir picks the directory for keys (one per build tuple) and a
// probe of probeRows rows. It is dense when its slot count, the keys'
// span, is at most four per build tuple or one per probe row. Filling a
// slot costs one store and a hashed lookup a multiply and a probe
// sequence, so a probe row repays its slot; the bound also keeps a dense
// directory no larger than half the probe's key column.
func joinKeyDir(keys []data.Value, probeRows int) keyDir {
	if len(keys) == 0 {
		return denseKeyDir(0, 0)
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	if n, ok := denseSpan(lo, hi, max(4*len(keys), probeRows)); ok {
		return denseKeyDir(lo, n)
	}
	return hashedKeyDir(1, len(keys))
}

// newJoinIndex indexes keys (one per build tuple, insertion order) through
// dir, which must be empty when hashed and span every key when dense.
func newJoinIndex(keys []data.Value, dir keyDir) *joinIndex {
	next := make([]int32, len(keys))
	for t, k := range keys {
		if dir.dense {
			next[t] = dir.find(k)
		} else {
			next[t] = dir.intern(keys[t : t+1])
		}
	}
	head := make([]int32, dir.n)
	for i := range head {
		head[i] = -1
	}
	for t := len(keys) - 1; t >= 0; t-- {
		id := next[t]
		next[t] = head[id]
		head[id] = int32(t)
	}
	return &joinIndex{dir: dir, head: head, next: next}
}

// joinedNeed is the set of combined attributes read after the join: select
// outputs, group keys, and residual predicate inputs. Per-side filter and
// key attributes are excluded — they are consumed during build/probe.
func joinedNeed(q *query.Query, out Outputs, residual expr.Pred) []data.AttrID {
	need := q.SelectAttrs()
	if len(out.GroupBy) > 0 {
		need = data.Union(need, data.SortedUnique(append([]data.AttrID(nil), out.GroupBy...)))
	}
	if residual != nil {
		need = data.Union(need, data.SortedUnique(residual.Attrs(nil)))
	}
	return need
}

// planJoin is the setup ExecJoin and ExecJoinDelta share: it validates the
// join clause, classifies the output, splits the WHERE clause by side,
// chooses the build side greedily, resolves every attribute read after the
// join to a build arena slot or a probe binding, and builds the hash table.
// The returned probe's ht stays nil when zone maps empty the build side:
// the build never runs (its pruned segments are counted into stats here),
// and no row can join.
func planJoin(left, right *storage.Relation, q *query.Query, stats *StrategyStats) (*joinProbe, error) {
	if len(q.Joins) != 1 {
		return nil, fmt.Errorf("exec: ExecJoin serves exactly one join clause, query has %d", len(q.Joins))
	}
	nL := left.Schema.NumAttrs()
	nR := right.Schema.NumAttrs()
	j := q.Joins[0]
	if j.LeftKey.ID < 0 || j.LeftKey.ID >= nL || j.RightKey.ID < nL || j.RightKey.ID >= nL+nR {
		return nil, fmt.Errorf("exec: join keys %d = %d outside combined namespace [0,%d) = [%d,%d)",
			j.LeftKey.ID, j.RightKey.ID, nL, nL, nL+nR)
	}
	out := Classify(q)
	if out.Kind == OutOther {
		return nil, ErrUnsupported
	}
	js := splitJoinWhere(q.Where, nL)

	// Greedy build-side choice. Projection shapes must stream the left
	// side through the probe pipeline so output stays in left-major
	// (nested-loop) order; aggregate and grouped merges are commutative,
	// so the genuinely smaller side builds.
	build := &joinSide{rel: right, base: nL, key: j.RightKey.ID - nL, pred: js.rightPred, cols: js.rightCols, split: js.rightSplit}
	probe := &joinSide{rel: left, base: 0, key: j.LeftKey.ID, pred: js.leftPred, cols: js.leftCols, split: js.leftSplit}
	orderSensitive := out.Kind == OutProjection || out.Kind == OutExpression
	buildCand, buildPruned := build.candidates()
	probeCand, probePruned := probe.candidates()
	if !orderSensitive && buildCand > probeCand {
		build, probe = probe, build
		buildCand, buildPruned, probeCand = probeCand, probePruned, buildCand
	}

	// Every attribute read after the join resolves once, here, to an arena
	// slot of the build tuple or a position among the probe scan's
	// bindings.
	need := joinedNeed(q, out, js.residual)
	jp := &joinProbe{
		side:     probe,
		out:      out,
		attrs:    probe.scanAttrs(need),
		colOf:    make([]joinCol, nL+nR),
		residual: js.residual,
		limit:    limitFor(out, q),
	}
	for i := range jp.colOf {
		jp.colOf[i] = joinCol{slot: -1, probe: -1} // unmapped: reading it panics
	}
	var buildNeed []data.AttrID
	for _, a := range need {
		if a >= build.base && a < build.base+build.rel.Schema.NumAttrs() {
			jp.colOf[a] = joinCol{slot: len(buildNeed)}
			buildNeed = append(buildNeed, a)
		}
	}
	for i, a := range jp.attrs {
		if a == probe.key {
			jp.keyPos = i
		}
		jp.colOf[probe.base+a] = joinCol{slot: -1, probe: i}
	}

	// Early termination: zone maps emptied the build side, so no row can
	// join — the probe side is never touched (its cold segments stay cold).
	// The build side's pruned segments are recorded here; when the build
	// actually runs, buildJoinHashTable counts them itself.
	if buildCand == 0 {
		stats.SegmentsPruned += buildPruned
		return jp, nil
	}
	ht, err := buildJoinHashTable(build, buildNeed, probeCand, stats)
	if err != nil {
		return nil, err
	}
	stats.IntermediateWords += len(ht.arena)
	jp.ht = ht
	return jp, nil
}

// ExecJoin executes a single equi-join query over the left and right
// relations. The query's attributes live in the combined namespace; the
// output shape is whatever Classify reports for the combined query, merged
// with the same machinery as single-relation pipelines. LIMIT is applied
// here (the single-relation engines apply it post-Exec; join results don't
// pass through them).
func ExecJoin(left, right *storage.Relation, q *query.Query, opts ExecOpts) (*Result, error) {
	stats := &StrategyStats{}
	defer func() {
		if opts.Stats != nil {
			s := opts.Stats
			s.SegmentsScanned += stats.SegmentsScanned
			s.SegmentsPruned += stats.SegmentsPruned
			s.SegmentsFaulted += stats.SegmentsFaulted
			s.IntermediateWords += stats.IntermediateWords
			s.DecodeSkips += stats.DecodeSkips
			s.EncodedBytes += stats.EncodedBytes
			// Touched stays empty: the list is indexed per relation and a
			// join spans two, so join executions report counts only.
		}
	}()
	jp, err := planJoin(left, right, q, stats)
	if err != nil {
		return nil, err
	}
	if jp.empty() {
		return trimJoinLimit(mergePartials(jp.out, nil), q), nil
	}
	p := &pipeline{out: jp.out, limit: jp.limit, scan: jp.scan}
	if jp.side.split {
		p.preds = jp.side.cols
	}
	popts := opts
	popts.Stats = stats
	res, err := p.run(jp.side.rel, popts)
	if err != nil {
		return nil, err
	}
	return trimJoinLimit(res, q), nil
}

// JoinRepairable reports whether the join query q can be maintained by
// probe-side delta repair (ExecJoinDelta): exactly one join between two
// distinct tables, no LIMIT, and an aggregate output, scalar or grouped
// (OutGrouped), that ExecJoin serves. Such a
// result is a merge of per-probe-segment partials over one build hash
// table, so with the build side unchanged an append to the probe side
// folds only the appended rows: Δ(R ⋈ S) = ΔR ⋈ S. A self-join is refused:
// every append to its probe side is an append to its build side too.
func JoinRepairable(q *query.Query) bool {
	if q == nil || q.Limit != 0 || len(q.Joins) != 1 || q.Joins[0].Table == q.Table {
		return false
	}
	return Classify(q).Kind == OutGrouped
}

// ExecJoinDelta is ExecDelta for a join query: per-probe-segment partials
// over a freshly built hash table. It rebuilds the build side's directory
// every call — the build side is the smaller by construction — and then
// walks the probe side exactly as ExecDelta walks a relation: empty and
// pruned segments skipped, a segment at an unchanged version reused, one
// whose bump was reorganization only re-stamped, one that only grew
// scanned from its old row count on, everything else rescanned whole.
//
// The payload's Deps record the build side's candidate segments at their
// versions, and Versions() carries them into have under negative keys.
// Probe partials are reused only when the current build candidates equal
// those entries exactly; otherwise have is ignored and every probe
// candidate is scanned whole. Versions come from one process-wide clock,
// so that equality proves the same build relation, in the same state,
// chosen as the build side again: an append to the build side, a replaced
// table and a flipped greedy choice each reuse nothing.
//
// The caller must hold both relations stable. Stats receives the build and
// probe scan counters but no touch set: Touched is indexed per relation
// and a join spans two. Queries JoinRepairable refuses return
// ErrUnsupported.
func ExecJoinDelta(left, right *storage.Relation, q *query.Query, have map[int]uint64, workers int, stats *StrategyStats) (fresh *PartialResult, reused []int, err error) {
	if !JoinRepairable(q) {
		return nil, nil, ErrUnsupported
	}
	if stats == nil {
		stats = &StrategyStats{}
	}
	jp, err := planJoin(left, right, q, stats)
	if err != nil {
		return nil, nil, err
	}
	fresh = newPartialResult(q)
	fresh.Deps = map[int]uint64{}
	if jp.ht != nil {
		fresh.Deps = jp.ht.deps
	}
	if jp.empty() {
		return fresh, nil, nil
	}
	if !depsMatch(have, fresh.Deps) {
		have = nil
	}
	var preds []ColPred
	if jp.side.split {
		preds = jp.side.cols
	}
	tasks, reused := planDelta(jp.side.rel, preds, have, fresh, stats)
	err = runDelta(tasks, workers, fresh, stats, func(t deltaTask, st *StrategyStats) (*SegPartial, bool, error) {
		faulted, err := t.seg.Acquire()
		if err != nil {
			return nil, false, err
		}
		t.seg.Touch()
		p, err := jp.scan(&segCtx{si: t.si, seg: t.seg, lo: t.lo, hi: t.seg.Rows, stats: st})
		t.seg.Release()
		if err != nil {
			return nil, false, err
		}
		sp := segPartialOf(p)
		sp.Version, sp.Base = t.v, t.base
		return sp, faulted, nil
	})
	if err != nil {
		return nil, nil, err
	}
	stats.SegmentsScanned += len(tasks) // counted, not touched: Touched is per relation
	return fresh, reused, nil
}

// depsMatch reports whether have's negative entries, a prior join
// payload's build dependencies, are exactly deps.
func depsMatch(have, deps map[int]uint64) bool {
	n := 0
	for k, v := range have {
		if k >= 0 {
			continue
		}
		n++
		if dv, ok := deps[-k-1]; !ok || dv != v {
			return false
		}
	}
	return n == len(deps)
}

// joinCol locates one combined attribute of a joined row: the build
// tuple's arena slot when slot >= 0, otherwise position probe among the
// probe scan's bindings. An attribute neither side maps holds -1 in both.
type joinCol struct{ slot, probe int }

// joinProbe is the probe side's per-segment operator, with everything that
// does not depend on the segment resolved once per query.
type joinProbe struct {
	side     *joinSide
	out      Outputs
	ht       *joinHashTable
	attrs    []data.AttrID // probe scan attributes, local ids
	keyPos   int           // the join key's position in attrs
	colOf    []joinCol     // combined id -> location, for attributes read after the join
	residual expr.Pred
	limit    int
}

// empty reports whether no row can join: zone maps emptied the build side,
// or its filter left the hash table empty.
func (jp *joinProbe) empty() bool {
	return jp.ht == nil || len(jp.ht.keys) == 0
}

// scan probes one pinned segment: filter rows [c.lo, c.hi) one VectorSize
// chunk at a time with the probe side's kernels, look each surviving row's
// key up in the directory, evaluate the residual over every candidate
// pair, and fold each joined row into the segment's partial. Matches emit
// in (probe row, build insertion) order, so merged partials reproduce the
// canonical nested-loop order.
func (jp *joinProbe) scan(c *segCtx) (*partial, error) {
	_, assign, err := c.seg.CoveringGroups(jp.attrs)
	if err != nil {
		return nil, err
	}
	m := &joinMatches{
		jp:    jp,
		binds: bindAttrs(assign, jp.attrs),
		p:     newPartial(jp.out),
		kvals: make([]data.Value, len(jp.out.GroupBy)),
	}
	m.get = m.value
	filter := jp.side.bindFilter(assign)
	buf := make([]int32, 0, min(VectorSize, c.hi-c.lo))
	for lo := c.lo; lo < c.hi; lo += VectorSize {
		if !m.probe(filter.sel(lo, min(lo+VectorSize, c.hi), buf)) {
			break
		}
	}
	return m.p, nil
}

// joinMatches is one probe segment's match state: the segment's bindings,
// the partial its joined rows fold into, and the joined row value reads.
type joinMatches struct {
	jp    *joinProbe
	binds []colBinding // the probe segment's bindings, jp.attrs order
	p     *partial
	kvals []data.Value
	r, tb int           // the joined row value reads: probe row, arena offset
	get   expr.Accessor // m.value
}

// probe looks the key of each probe row in sel up in the directory,
// evaluates the residual over every candidate pair and folds the joined
// rows into the partial. The directory's mode is tested once per chunk, so
// a dense lookup is one bounds check and one load. It reports false once
// the segment has produced the limit's rows.
func (m *joinMatches) probe(sel []int32) bool {
	kb := &m.binds[m.jp.keyPos]
	x := m.jp.ht.idx
	if x.dir.dense {
		lo, head := x.dir.lo, x.head
		for _, r := range sel {
			if u := uint64(kb.at(int(r)) - lo); u < uint64(len(head)) && head[u] >= 0 && !m.join(int(r), head[u]) {
				return false
			}
		}
		return true
	}
	for _, r := range sel {
		if id := x.dir.findHashed(kb.at(int(r))); id >= 0 && !m.join(int(r), x.head[id]) {
			return false
		}
	}
	return true
}

// join folds probe row r joined with build tuple t and the rest of t's
// chain. It reports false once the segment has produced the limit's rows.
func (m *joinMatches) join(r int, t int32) bool {
	jp := m.jp
	m.r = r
	for ; t >= 0; t = jp.ht.idx.next[t] {
		m.tb = int(t) * jp.ht.width
		if jp.residual != nil && !jp.residual.EvalBool(m.get) {
			continue
		}
		foldJoined(jp.out, m.p, m.get, m.kvals)
	}
	return jp.limit <= 0 || m.p.rows < jp.limit
}

// value reads combined attribute a of the joined row (m.r, m.tb).
func (m *joinMatches) value(a data.AttrID) data.Value {
	c := m.jp.colOf[a]
	if c.slot >= 0 {
		return m.jp.ht.arena[m.tb+c.slot]
	}
	return m.binds[c.probe].at(m.r)
}

// foldJoined folds one joined row into the partial, by output shape —
// the same shapes mergePartials combines. An aggregate row, scalar or
// grouped, folds into the partial's accumulator.
func foldJoined(out Outputs, p *partial, get expr.Accessor, kvals []data.Value) {
	switch out.Kind {
	case OutProjection:
		for _, a := range out.ProjAttrs {
			p.data = append(p.data, get(a))
		}
		p.rows++
	case OutExpression:
		var acc data.Value
		for _, a := range out.ExprAttrs {
			acc += get(a)
		}
		p.data = append(p.data, acc)
		p.rows++
	case OutGrouped:
		for i, a := range out.GroupBy {
			kvals[i] = get(a)
		}
		ga := p.groups
		id := ga.id(kvals)
		ga.count[id]++
		for j, arg := range out.GroupArgs {
			if ga.ops[j] != expr.AggCount {
				ga.add(j, id, arg.Eval(get))
			}
		}
	}
}

// trimJoinLimit applies q.Limit to a merged join result. Single-relation
// paths trim in the engine after Exec; join results are returned straight
// from here, so the trim happens here instead.
func trimJoinLimit(res *Result, q *query.Query) *Result {
	if q.Limit <= 0 || res == nil || res.Rows <= q.Limit {
		return res
	}
	res.Rows = q.Limit
	res.Data = res.Data[:q.Limit*len(res.Cols)]
	return res
}
