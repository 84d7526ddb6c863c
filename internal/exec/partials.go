package exec

import (
	"fmt"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// This file is the partial-result layer behind the serving layer's delta
// repair: queries whose outputs are decomposable aggregates can be answered
// from per-segment partial aggregate states, and — because segments are
// disjoint, immutable-once-sealed partitions — maintained incrementally by
// rescanning only the segments that changed since the partials were
// computed and re-combining with the retained cold-segment partials.
//
// The partials contract:
//
//   - A query is *repairable* (see Repairable) when every select item is an
//     aggregate and it carries no LIMIT. All five aggregate operators
//     decompose over disjoint partitions: count and sum combine by
//     addition, min and max by comparison, and avg by carrying (sum, count)
//     pairs — exactly what expr.AggState.Merge implements. The same merge
//     law covers grouped aggregates: a GROUP BY query whose select items are
//     aggregates and group-key columns (OutGrouped) keeps a per-segment map
//     of encoded group key → AggState vector, and partials combine by
//     merging those maps key-wise — a key absent from a segment simply
//     contributes nothing. Group keys never cross segment boundaries'
//     disjointness, so the grouped merge is as exact as the flat one.
//   - LIMIT disqualifies repair even though it is a no-op on one-row
//     aggregate results: for every other output shape the limit makes the
//     result a prefix artifact of scan order rather than a pure function of
//     per-partition contributions, so the classifier excludes it uniformly
//     instead of special-casing the vacuous aggregate case.
//   - Projections and bare expressions are never repairable: their results
//     concatenate rows in segment order, so a changed segment shifts every
//     later row — there is nothing to retain.
//
// A SegPartial is reused whole at an unchanged version, and extended by
// its suffix after appends. Segment versions come from a process-wide
// monotone clock and bump on every mutation of that segment (tail appends,
// segment-local reorganization), while residency changes (tiered-storage
// spill/fault) never bump them — cached partials survive a spill cycle just
// as cached results do. A segment whose version matches can also never
// have changed its *candidacy*: zone maps only move under version-bumping
// mutations, so an unchanged segment is a candidate for a query now iff it
// was when the partial was computed.
//
// A segment whose version moved is not necessarily rewritten. Rows below a
// count the segment once held never change: appends only add rows,
// reorganization copies values into new groups, and encoding and spill
// preserve them. So when the segment's history (storage.Segment.RowsAt)
// still knows the cached version, ExecDelta scans only the rows appended
// since — or nothing at all, after a reorganization-only bump — and
// Repaired folds that suffix into the cached partial. Every aggregate
// merges exactly over a prefix/suffix split (int64 sums wrap identically
// in either order), and zone maps only widen under appends, so a segment
// that had a partial is still a candidate unless it is pruned now, which
// drops it exactly as before.
//
// Joins follow the same contract on their probe side (JoinRepairable,
// ExecJoinDelta). An aggregate or grouped single equi-join merges
// per-probe-segment partials over one build hash table, so with the build
// side unchanged an append to the probe side folds only the appended
// rows: Δ(R ⋈ S) = ΔR ⋈ S. A join payload's Segs are keyed by probe
// segment, and its Deps record the build side's candidate segments at
// their versions. Versions() emits a dependency on build segment si under
// the negative key -(si+1), so the build side travels in the same have
// vector as the probe side. ExecJoinDelta reuses nothing unless the
// current build candidates equal those entries exactly; one process-wide
// version clock makes that equality prove the same build relation, in the
// same state, chosen as the build side again.

// SegPartial is one segment's contribution to a repairable query: the
// per-item aggregate states folded over the segment's qualifying rows, and
// the segment version they were computed at. Treat published SegPartials as
// immutable — they are shared between the partials cache and every repair
// that retains them; combining always merges into fresh states.
type SegPartial struct {
	// Version is the segment's version at scan time; the partial is
	// reusable whole exactly while the live segment still reports it.
	Version uint64
	// Base is non-zero on a suffix partial from ExecDelta: the states
	// cover only the rows appended since version Base (none, after a
	// reorganization-only bump), and Repaired folds them into the prior
	// partial stamped Base. Versions start at 1, so zero means "whole
	// segment".
	Base uint64
	// States holds one accumulator per select item, in item order. Nil for
	// grouped queries, which use Groups instead.
	States []*expr.AggState
	// Groups holds the grouped decomposition: encoded group key (see
	// encodeGroupKey) → one accumulator per aggregate select item, in item
	// order. Nil for ungrouped queries.
	Groups map[string][]*expr.AggState
}

// PartialResult is the per-segment decomposition of a repairable query's
// result: one SegPartial per candidate segment, keyed by segment index.
// Segment indices are stable identities here — segments are only ever
// appended, never merged or removed — so a version-vector diff by index is
// sound.
type PartialResult struct {
	// Labels are the output column labels, in select-item order.
	Labels []string
	// Ops are the aggregate operators; Result uses them to build the fresh
	// accumulators the per-segment states merge into. For ungrouped queries
	// there is one per select item; for grouped queries one per *aggregate*
	// item, in item order (key items carry no state).
	Ops []expr.AggOp
	// GroupBy and ItemKey carry the grouped output shape (see
	// Outputs.GroupBy/ItemKey); both are nil for ungrouped queries.
	GroupBy []data.AttrID
	ItemKey []int
	// Segs maps segment index to that segment's partial — a probe-side
	// segment index for a join payload.
	Segs map[int]*SegPartial
	// Deps is non-nil exactly on join payloads: the build side's candidate
	// segments at the versions the partials were computed against, keyed by
	// segment index. Versions() emits them under negative keys.
	Deps map[int]uint64
}

// Repairable reports whether q's result can be maintained by delta repair:
// its select shape must classify as OutGrouped — aggregates (count, sum,
// min, max or avg over any argument expression, all decomposable over
// disjoint segments) plus, under GROUP BY, bare group-key columns, since
// per-segment group maps merge key-wise under the same decomposition law —
// and the query must carry no LIMIT. Join queries are not repairable
// here: ExecDelta scans one relation, and a join's partials are per probe
// segment over a build hash table of the other — JoinRepairable and
// ExecJoinDelta serve them. See the partials contract at the top of this
// file.
func Repairable(q *query.Query) bool {
	if q == nil || q.Limit != 0 || len(q.Items) == 0 || len(q.Joins) > 0 {
		return false
	}
	return Classify(q).Kind == OutGrouped
}

// newPartialResult builds the empty partials container for q. Callers have
// already checked that q's shape classifies as OutGrouped; a scalar
// payload carries no GroupBy and no ItemKey.
func newPartialResult(q *query.Query) *PartialResult {
	out := Classify(q)
	p := &PartialResult{
		Labels: out.Labels,
		Ops:    out.GroupOps,
		Segs:   make(map[int]*SegPartial),
	}
	if len(out.GroupBy) > 0 {
		p.GroupBy = out.GroupBy
		p.ItemKey = out.ItemKey
	}
	return p
}

// outputs returns the aggregate output shape the payload folds: its
// grouped shape, or for a scalar payload the shape of aggregates alone.
func (p *PartialResult) outputs() Outputs {
	out := Outputs{Kind: OutGrouped, Labels: p.Labels, GroupBy: p.GroupBy, ItemKey: p.ItemKey, GroupOps: p.Ops}
	if len(p.ItemKey) == 0 {
		out.ItemKey = make([]int, len(p.Ops))
		for i := range out.ItemKey {
			out.ItemKey[i] = -1
		}
	}
	return out
}

// merge folds sp's canonical states into ga.
func (p *PartialResult) merge(ga *groupedAcc, sp *SegPartial) {
	if len(p.ItemKey) > 0 {
		ga.mergeMap(sp.Groups)
		return
	}
	ga.mergeStates(0, sp.States)
}

// Result combines every segment partial into the final result: one row for
// ungrouped aggregates, one row per group (ordered ascending by key vector)
// for grouped ones. Aggregate merging is commutative and associative, so map
// iteration order does not matter. The inputs are not mutated: merging
// always happens into a fresh accumulator.
func (p *PartialResult) Result() *Result {
	out := p.outputs()
	ga := newGroupedAcc(out)
	for _, sp := range p.Segs {
		p.merge(ga, sp)
	}
	return groupedResult(out, ga)
}

// Versions snapshots the segment-version vector the partials were computed
// at, keyed by segment index — the `have` argument of a later ExecDelta or
// ExecJoinDelta. A join payload's build dependencies ride along under
// negative keys: build segment si at key -(si+1).
func (p *PartialResult) Versions() map[int]uint64 {
	out := make(map[int]uint64, len(p.Segs)+len(p.Deps))
	for si, sp := range p.Segs {
		out[si] = sp.Version
	}
	for si, v := range p.Deps {
		out[-(si + 1)] = v
	}
	return out
}

// Bytes estimates the payload's memory footprint for cache budgeting: map
// bookkeeping plus one accumulator per (segment, item) — or, for grouped
// payloads, per (segment, group, aggregate item) plus the encoded keys, so
// a high-cardinality grouped payload is charged for every group it retains,
// plus one map slot per build dependency of a join payload. It is a sizing
// estimate, not an exact heap measurement.
func (p *PartialResult) Bytes() int64 {
	if p == nil {
		return 0
	}
	const (
		segOverhead   = 64 // map slot + SegPartial header + states slice header
		stateOverhead = 48 // AggState struct + pointer
		groupOverhead = 56 // group-map slot + key string header + states slice header
		depOverhead   = 24 // Deps map slot: index + version
	)
	total := int64(len(p.Deps)) * depOverhead
	if len(p.ItemKey) > 0 {
		total += int64(len(p.Segs)) * segOverhead
		keyBytes := int64(len(p.GroupBy)) * 8
		perGroup := groupOverhead + keyBytes + stateOverhead*int64(len(p.Ops))
		for _, sp := range p.Segs {
			total += int64(len(sp.Groups)) * perGroup
		}
		return total
	}
	return total + int64(len(p.Segs))*(segOverhead+stateOverhead*int64(len(p.Ops)))
}

// Repaired assembles the post-repair partials payload: the retained
// segments' partials from prior plus every freshly rescanned partial, with
// each suffix partial folded into prior's partial of its segment. prior
// may be nil (a cold seed has nothing to retain, and ExecDelta returns no
// suffixes without a have vector). The result shares whole SegPartials
// with its inputs and builds fresh accumulators for every fold; none of
// the inputs are mutated. A suffix whose base prior does not hold panics:
// the have vector passed to ExecDelta must be prior.Versions(). A join
// payload's Deps come from fresh: they name the build side the scan read.
func Repaired(prior, fresh *PartialResult, reused []int) *PartialResult {
	out := &PartialResult{
		Labels:  fresh.Labels,
		Ops:     fresh.Ops,
		GroupBy: fresh.GroupBy,
		ItemKey: fresh.ItemKey,
		Segs:    make(map[int]*SegPartial, len(reused)+len(fresh.Segs)),
		Deps:    fresh.Deps,
	}
	if prior != nil {
		for _, si := range reused {
			if sp, ok := prior.Segs[si]; ok {
				out.Segs[si] = sp
			}
		}
	}
	for si, sp := range fresh.Segs {
		if sp.Base != 0 {
			sp = prior.extend(si, sp)
		}
		out.Segs[si] = sp
	}
	return out
}

// extend returns p's partial of segment si with the suffix partial sp
// folded in, stamped at sp's version.
func (p *PartialResult) extend(si int, sp *SegPartial) *SegPartial {
	var base *SegPartial
	if p != nil {
		base = p.Segs[si]
	}
	if base == nil || base.Version != sp.Base {
		panic(fmt.Sprintf("exec: suffix partial of segment %d extends version %d, which the prior payload does not hold", si, sp.Base))
	}
	ga := newGroupedAcc(p.outputs())
	p.merge(ga, base)
	p.merge(ga, sp)
	out := segPartialOf(&partial{groups: ga})
	out.Version = sp.Version
	return out
}

// ExecPartials scans every candidate segment of rel for the repairable
// query q and returns the per-segment partials. It is ExecDelta with
// nothing to reuse; the merged Result() equals what any full strategy
// computes.
func ExecPartials(rel *storage.Relation, q *query.Query, stats *StrategyStats) (*PartialResult, error) {
	fresh, _, err := ExecDelta(rel, q, nil, 1, stats)
	return fresh, err
}

// deltaTask is one segment ExecDelta must rescan: rows [lo, Rows) of it,
// with base the cached version a suffix (lo > 0) extends.
type deltaTask struct {
	si   int
	seg  *storage.Segment
	v    uint64
	lo   int
	base uint64
}

// ExecDelta is the delta-repair scan: it walks rel's segments exactly like
// the fingerprint computation does — empty segments skipped, segments whose
// zone maps rule the conjunction out pruned — and, for each surviving
// candidate, either *reuses* the caller's prior partial (the segment's
// version matches have[si], so neither its rows nor its candidacy can have
// changed), *extends* it (the segment's history still knows have[si], so
// only the rows appended since are scanned — none after a
// reorganization-only bump — into a suffix partial with Base = have[si]),
// or *rescans* it whole into a fresh SegPartial. It returns the fresh
// partials and the indices of the reused candidates; combining
// Repaired(prior, fresh, reused).Result() equals a cold full scan of the
// current state.
//
// have is the version vector of the caller's cached partials (nil reuses
// nothing — a full partial scan) and must be prior.Versions() of the
// payload later passed to Repaired. workers > 1 fans the rescans out one
// goroutine task per segment, exactly as the row pipeline's fan-out does —
// partials are per-segment and order-independent, so the usual case of one changed
// tail stays serial while a cold seed of a large relation uses every core.
// The caller must hold the relation stable (the engine's read lock
// suffices). Non-repairable queries return ErrUnsupported. Stats, when
// non-nil, receives the scan counters: only rescanned segments count as
// scanned/touched.
func ExecDelta(rel *storage.Relation, q *query.Query, have map[int]uint64, workers int, stats *StrategyStats) (fresh *PartialResult, reused []int, err error) {
	if !Repairable(q) {
		return nil, nil, ErrUnsupported
	}
	out := Classify(q)
	preds, splittable := SplitConjunction(q.Where)
	if !splittable {
		preds = nil
	}

	// Under the caller's read lock no version can move between the
	// classification and the scan (mutations hold the exclusive lock).
	fresh = newPartialResult(q)
	tasks, reused := planDelta(rel, preds, have, fresh, stats)
	err = runDelta(tasks, workers, fresh, stats, func(t deltaTask, st *StrategyStats) (*SegPartial, bool, error) {
		return scanDeltaTask(t, q, out, preds, splittable, st)
	})
	if err != nil {
		return nil, nil, err
	}
	for _, t := range tasks {
		stats.touch(t.si)
	}
	return fresh, reused, nil
}

// planDelta is a delta scan's classification phase over rel's segments:
// empty segments are skipped and segments preds prune are counted and
// skipped. Every other candidate is reused (its version matches have),
// re-stamped in fresh without a scan (a reorganization-only bump), or
// planned as a task: a suffix scan when it only grew since have's version,
// a whole rescan otherwise.
func planDelta(rel *storage.Relation, preds []ColPred, have map[int]uint64, fresh *PartialResult, stats *StrategyStats) (tasks []deltaTask, reused []int) {
	for si, seg := range rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		if len(preds) > 0 && segPruned(seg, preds) {
			if stats != nil {
				stats.SegmentsPruned++
			}
			continue
		}
		v := seg.Version()
		hv, cached := have[si]
		if cached && hv == v {
			reused = append(reused, si)
			continue
		}
		t := deltaTask{si: si, seg: seg, v: v}
		if r0, ok := seg.RowsAt(hv); cached && ok {
			if r0 == seg.Rows {
				// Reorganization only: same rows, same values. Re-stamp
				// the cached partial without pinning or scanning.
				fresh.Segs[si] = &SegPartial{Version: v, Base: hv}
				continue
			}
			t.lo, t.base = r0, hv // only grew: scan the appended rows
		}
		tasks = append(tasks, t)
	}
	return tasks, reused
}

// runDelta is a delta scan's scan phase: scan computes each planned task's
// partial, serially or fanned out over workers — partials are per-segment
// and order-independent, so the usual case of one changed tail stays
// serial while a cold seed of a large relation uses every core — and each
// lands in fresh. Per-task stats keep the workers race-free; they fold
// into stats after the join. Scanned segments are the caller's to count.
func runDelta(tasks []deltaTask, workers int, fresh *PartialResult, stats *StrategyStats, scan func(t deltaTask, st *StrategyStats) (*SegPartial, bool, error)) error {
	partials := make([]*SegPartial, len(tasks))
	faulted := make([]bool, len(tasks))
	taskStats := make([]StrategyStats, len(tasks))
	run := func(ti int) error {
		sp, f, err := scan(tasks[ti], &taskStats[ti])
		if err != nil {
			return err
		}
		partials[ti], faulted[ti] = sp, f
		return nil
	}
	if workers = min(workers, len(tasks)); workers > 1 {
		if err := claimLoop(len(tasks), workers, nil, run); err != nil {
			return err
		}
	} else {
		for ti := range tasks {
			if err := run(ti); err != nil {
				return err
			}
		}
	}
	for ti, sp := range partials {
		if stats != nil && faulted[ti] {
			stats.SegmentsFaulted++
		}
		foldCounters(stats, &taskStats[ti])
		fresh.Segs[tasks[ti].si] = sp
	}
	return nil
}

// encodedEligible reports whether the encoded block kernel can serve the
// classified shape: aggregate outputs with a splittable conjunction.
// Everything else reads rows through accessor indirection and needs flat
// data.
func encodedEligible(out Outputs, splittable bool) bool {
	return splittable && out.Kind == OutGrouped
}

// scanDeltaTask pins one planned segment, scans its partial — of the
// suffix view when the task extends a cached partial — and stamps the
// version read during classification. Whole-segment scans of shapes the
// encoded kernel can serve pin at encoded-or-better residency, so spilled
// segments of an encoded tier repair their partials without materializing
// flat mini-tuples; a suffix view slices flat data, so it pins flat.
func scanDeltaTask(t deltaTask, q *query.Query, out Outputs, preds []ColPred, splittable bool, stats *StrategyStats) (*SegPartial, bool, error) {
	var faulted bool
	var err error
	if t.lo == 0 && encodedEligible(out, splittable) {
		faulted, err = t.seg.AcquireEncoded()
	} else {
		faulted, err = t.seg.Acquire()
	}
	if err != nil {
		return nil, false, err
	}
	t.seg.Touch()
	seg := t.seg
	if t.lo > 0 {
		seg = seg.Suffix(t.lo)
	}
	sp, err := scanSegmentPartial(seg, q, out, preds, splittable, stats)
	t.seg.Release()
	if err != nil {
		return nil, false, err
	}
	sp.Version, sp.Base = t.v, t.base
	return sp, faulted, nil
}

// scanSegmentPartial computes one pinned segment's SegPartial; see
// segmentPartial.
func scanSegmentPartial(seg *storage.Segment, q *query.Query, out Outputs, preds []ColPred, splittable bool, stats *StrategyStats) (*SegPartial, error) {
	p, err := segmentPartial(seg, q, out, preds, splittable, stats)
	if err != nil {
		return nil, err
	}
	return segPartialOf(p), nil
}

// segmentPartial folds one pinned segment's qualifying rows into a fresh
// accumulator, choosing the per-segment operator from what the segment
// offers, as the exec pipelines do:
//
//  1. encoded blocks, when the segment's needed groups hold encodings (an
//     encoded-resident rung, an mmap-backed fault, or a sealed-with-encoding
//     flat segment) — the partial folds without materializing flat data;
//  2. the fused row kernel (scanRange), when one group covers the query —
//     any predicate shape, non-splittable ones through its interpreted
//     filter;
//  3. the hybrid selection-vector kernel, for a splittable conjunction on
//     any layout — column-major included, where no single group covers a
//     multi-attribute aggregate;
//  4. the generic interpreter, only for a non-splittable predicate over
//     several groups.
//
// Every rung folds the same accumulator, so the choice never changes the
// partial, only its cost. The encoded pipeline uses it as its per-segment
// operator: a flat segment takes the flat rungs.
func segmentPartial(seg *storage.Segment, q *query.Query, out Outputs, preds []ColPred, splittable bool, stats *StrategyStats) (*partial, error) {
	if encodedEligible(out, splittable) {
		p := newPartial(out)
		ok, err := encodedSegmentScan(seg, out, preds, p.groups, stats)
		if err != nil {
			return nil, err
		}
		if ok {
			return p, nil
		}
	}
	if g := bestCoveringGroupSeg(seg, q); g != nil {
		if !splittable {
			return scanRange(g, out, nil, q.Where, 0, seg.Rows), nil
		}
		if bound, ok := BindPreds(g, preds); ok {
			return scanRange(g, out, bound, nil, 0, seg.Rows), nil
		}
	}
	if splittable {
		// Nil stats: intermediate accounting belongs to the
		// cost-compared strategies, as on reorg's cold segments.
		return hybridSegPartial(seg, q, out, preds, nil)
	}
	p := newPartial(out)
	if err := genericGroupedSegmentScan(seg, q, out, p.groups); err != nil {
		return nil, err
	}
	return p, nil
}

// segPartialOf wraps one aggregate partial as a SegPartial: its group map,
// or for no keys its one state per aggregate.
func segPartialOf(p *partial) *SegPartial {
	if p.groups.scalar() {
		return &SegPartial{States: p.groups.states()}
	}
	return &SegPartial{Groups: p.groups.groups()}
}
