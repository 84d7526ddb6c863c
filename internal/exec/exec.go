package exec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// This file is the single entry point of the execution layer: every
// single-relation strategy runs as a per-segment streaming pipeline behind
// Exec, and the engine makes one Exec call per query. The pipelines'
// specialized kernels are the paper's generated operators (§3.4), compiled
// ahead of time, so nothing is generated or cached per query shape. A
// pipeline is SegSource → per-segment operator → merge:
//
//	SegSource: skip empty → resolve covering group → prune (zone maps)
//	           → pin/fault resident → touch/count
//	operator:  Filter → Project / Aggregate / Group over one segment,
//	           emitting a *partial
//	merge:     partials combine in segment order (aggregates merge
//	           associatively, rows concatenate, group maps merge key-wise)
//
// Because every operator is a pure segment → partial function, the same
// driver runs them serially or fanned out across a worker pool with a
// claim loop — segment-level parallelism is a property of the driver, not
// of any one strategy — and LIMIT is a uniform driver property (stop
// claiming segments once the dispatched prefix can satisfy it) instead of
// per-driver early-exit code. Joins and shard-local execution attach at
// the same seam: a join is another partial-producing operator, a shard is
// a remote SegSource.

// ExecOpts selects and parameterizes the pipeline Exec builds.
type ExecOpts struct {
	// Strategy picks the per-segment operator set.
	Strategy Strategy
	// Workers is the fan-out width: tasks (whole segments, or row ranges
	// of them) are claimed by this many goroutines when > 1, run serially
	// when <= 1. The reorg pipeline splits its hot segments into ranges
	// that stitch disjoint rows of each new group.
	Workers int
	// HotMask restricts StrategyReorg's stitching to the marked segments
	// (nil stitches every segment).
	HotMask []bool
	// ReorgAttrs is the attribute set StrategyReorg materializes per
	// segment. Required for StrategyReorg, ignored otherwise.
	ReorgAttrs []data.AttrID
	// NewGroups, when non-nil, receives StrategyReorg's freshly stitched
	// groups: one entry per segment, nil for segments left untouched.
	NewGroups *[]*storage.ColumnGroup
	// Stats, when non-nil, receives the scan counters and touch set.
	Stats *StrategyStats
}

// PipelineBuilder constructs the per-segment pipeline for one strategy.
// Builders validate the query shape (returning ErrUnsupported for shapes
// the strategy has no operators for) and close the returned pipeline's
// operators over the classified outputs and split predicates.
type PipelineBuilder func(rel *storage.Relation, q *query.Query, opts ExecOpts) (*pipeline, error)

// strategyEntry is one registry row: how to build the strategy's pipeline,
// where it appears in cost-based choice and Explain, and how to cost one
// segment's access under it. The registry is the single source of truth
// for the strategy set — cost.go and core.Engine both consult it, so they
// agree by construction.
type strategyEntry struct {
	build       PipelineBuilder
	costRank    int // position among the cost-compared strategies; -1 = never cost-chosen
	explainRank int // position in Explain's candidate list; -1 = not explained
	segPlan     segPlanFunc
}

// strategies is the registry. StrategyDelta has no pipeline builder: its
// result shape is a PartialResult, served by ExecDelta (which shares this
// file's claim loop for its fan-out). StrategyJoin spans two relations and
// is served by ExecJoin; StrategyVectorized and StrategyBitmap have no row
// at all (see their constants).
var strategies = map[Strategy]strategyEntry{
	StrategyRow:     {build: buildRow, costRank: 0, explainRank: 0, segPlan: rowSegPlan},
	StrategyHybrid:  {build: buildHybrid, costRank: 1, explainRank: 1, segPlan: hybridSegPlan},
	StrategyColumn:  {build: buildColumn, costRank: 2, explainRank: 2, segPlan: columnSegPlan},
	StrategyGeneric: {build: buildGeneric, costRank: -1, explainRank: 3, segPlan: genericSegPlan},
	StrategyEncoded: {build: buildEncoded, costRank: -1, explainRank: -1},
	StrategyReorg:   {build: buildReorg, costRank: -1, explainRank: -1},
	StrategyDelta:   {costRank: -1, explainRank: -1},
}

// rankedStrategies returns the registry entries with rank(entry) >= 0 in
// rank order.
func rankedStrategies(rank func(strategyEntry) int) []Strategy {
	type rs struct {
		s Strategy
		r int
	}
	var out []rs
	for s, e := range strategies {
		if r := rank(e); r >= 0 {
			out = append(out, rs{s, r})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].r < out[j].r })
	ss := make([]Strategy, len(out))
	for i, e := range out {
		ss[i] = e.s
	}
	return ss
}

// CostedStrategies returns, in comparison order, the strategies the
// cost-based chooser prices against each other. The order is the
// tie-break order: earlier strategies win cost ties.
func CostedStrategies() []Strategy {
	return rankedStrategies(func(e strategyEntry) int { return e.costRank })
}

// ExplainStrategies returns the candidate strategies Explain enumerates,
// in presentation order.
func ExplainStrategies() []Strategy {
	return rankedStrategies(func(e strategyEntry) int { return e.explainRank })
}

// Exec executes q on rel with the selected strategy's per-segment
// pipeline. It is the one entry point behind every single-relation
// strategy: the engine's dispatch and the harness both route through it.
// A strategy with no operators for q's shape returns ErrUnsupported; the
// engine then falls back to StrategyGeneric, which serves every shape.
func Exec(rel *storage.Relation, q *query.Query, opts ExecOpts) (*Result, error) {
	e, ok := strategies[opts.Strategy]
	if !ok || e.build == nil {
		return nil, fmt.Errorf("exec: strategy %v has no pipeline builder", opts.Strategy)
	}
	p, err := e.build(rel, q, opts)
	if err != nil {
		return nil, err
	}
	return p.run(rel, opts)
}

// segCtx is the per-task context the driver hands a pipeline's scan
// operator: the pinned segment, the row pipeline's resolved group and
// bound predicates, the row range (sub-segment ranges only when the row
// pipeline sub-splits), and a private stats sink — per-task so parallel
// scans stay race-free; the driver folds the counters after the join.
type segCtx struct {
	si     int
	seg    *storage.Segment
	g      *storage.ColumnGroup
	bound  []GroupPred
	lo, hi int
	stats  *StrategyStats
}

// pipeline is one strategy's composed execution plan: the SegSource
// policy knobs (prune predicates, pin tier, per-segment resolution, the
// force hook that bypasses pruning) plus the per-segment scan operator
// and the merge stage.
type pipeline struct {
	out   Outputs
	preds []ColPred // zone-map prune predicates; nil = never prune
	limit int       // materialized-row early-exit target; 0 = consume all
	// encodedPin pins segments at encoded-or-better residency instead of
	// flat (the encoded-direct pipeline).
	encodedPin bool
	// subsplit allows sub-segment row ranges when segments are scarcer
	// than workers (row pipeline only: scanRange takes [lo, hi)).
	subsplit bool
	// rangeRows, when non-nil, returns the length of the row ranges
	// segment si always splits into, 0 to keep it whole (the reorg
	// pipeline's hot segments).
	rangeRows func(si int) int
	// seal, when non-nil, runs once after every task has been scanned
	// and before the merge (the reorg pipeline finishes its new groups).
	seal func()
	// resolve, when non-nil, runs per non-empty segment before pruning
	// (the row pipeline's covering-group check, which must error even for
	// prunable segments).
	resolve func(seg *storage.Segment) (*storage.ColumnGroup, error)
	// bind, when non-nil, binds the prune predicates to the resolved
	// group after pruning (row pipeline).
	bind func(g *storage.ColumnGroup) ([]GroupPred, error)
	// force, when non-nil, marks segments that must be scanned even when
	// their zone maps would prune them (reorg's hot segments, which are
	// stitched regardless).
	force func(si int, seg *storage.Segment) bool
	// scan is the per-segment operator: Filter → Project/Agg/Group over
	// the pinned segment, emitting that segment's partial.
	scan func(c *segCtx) (*partial, error)
}

// run drives the pipeline: plan the segment tasks (SegSource policy),
// then scan them serially or fanned out, then merge.
func (p *pipeline) run(rel *storage.Relation, opts ExecOpts) (*Result, error) {
	stats := opts.Stats
	workers := max(opts.Workers, 1)

	// SegSource plan phase: skip empty segments, resolve per-segment
	// bindings, prune via zone maps (counted, and skipped entirely —
	// pruning precedes the residency check, so spilled cold segments cost
	// zero I/O).
	tasks := make([]segTask, 0, len(rel.Segments))
	for si, seg := range rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		var g *storage.ColumnGroup
		if p.resolve != nil {
			var err error
			if g, err = p.resolve(seg); err != nil {
				return nil, err
			}
		}
		if len(p.preds) > 0 && (p.force == nil || !p.force(si, seg)) && segPruned(seg, p.preds) {
			if stats != nil {
				stats.SegmentsPruned++
			}
			continue
		}
		t := segTask{si: si, seg: seg, g: g, hi: seg.Rows}
		if p.bind != nil {
			bound, err := p.bind(g)
			if err != nil {
				return nil, err
			}
			t.bound = bound
		}
		if p.rangeRows != nil {
			if per := p.rangeRows(si); per > 0 {
				tasks = t.split(per, tasks)
				continue
			}
		}
		tasks = append(tasks, t)
	}

	// Fewer segments than workers (small relations, heavy pruning):
	// sub-split each segment into contiguous row ranges so fan-out still
	// uses every core. Ranges stay in (segment, row) order, which keeps
	// the merged result and the limit's prefix property intact.
	if n := len(tasks); p.subsplit && n > 0 && n < workers {
		chunks := (workers + n - 1) / n
		split := make([]segTask, 0, n*chunks)
		for _, t := range tasks {
			split = t.split(max((t.hi+chunks-1)/chunks, 1), split)
		}
		tasks = split
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		return p.runSerial(tasks, stats)
	}
	return p.runParallel(tasks, workers, stats)
}

// runSerial scans the planned tasks in order, stopping once the limit's
// row target is met by the consumed prefix.
func (p *pipeline) runSerial(tasks []segTask, stats *StrategyStats) (*Result, error) {
	partials := make([]*partial, 0, len(tasks))
	rows := 0
	for i := range tasks {
		t := &tasks[i]
		faulted, err := p.pin(t.seg)
		if err != nil {
			return nil, err
		}
		if t.lo == 0 {
			t.seg.Touch()
			stats.touch(t.si)
		}
		if stats != nil && faulted {
			stats.SegmentsFaulted++
		}
		var ts StrategyStats
		part, err := p.scan(&segCtx{si: t.si, seg: t.seg, g: t.g, bound: t.bound, lo: t.lo, hi: t.hi, stats: &ts})
		t.seg.Release()
		if err != nil {
			return nil, err
		}
		foldCounters(stats, &ts)
		partials = append(partials, part)
		rows += part.rows
		if p.limit > 0 && rows >= p.limit {
			break
		}
	}
	return p.finish(partials)
}

// runParallel fans the planned tasks out across a claim loop: workers
// claim tasks in order, stop claiming once the dispatched prefix can
// satisfy the limit (every task below the claim counter is being
// scanned, so the first limit rows of the ordered concatenation are
// final), and partials merge in task order after the join — bit-identical
// to the serial scan.
func (p *pipeline) runParallel(tasks []segTask, workers int, stats *StrategyStats) (*Result, error) {
	limit := int64(p.limit)
	partials := make([]*partial, len(tasks))
	faulted := make([]bool, len(tasks))
	taskStats := make([]StrategyStats, len(tasks))
	var produced atomic.Int64
	var stop func() bool
	if limit > 0 {
		stop = func() bool { return produced.Load() >= limit }
	}
	err := claimLoop(len(tasks), workers, stop, func(ti int) error {
		t := &tasks[ti]
		// Pin the segment resident for the duration of the scan, faulting
		// it in when spilled: concurrent tasks on the same segment
		// serialize on the residency lock, so at most one fault per
		// segment happens no matter how it was sub-split.
		f, err := p.pin(t.seg)
		if err != nil {
			return err
		}
		faulted[ti] = f
		if t.lo == 0 {
			t.seg.Touch() // once per segment, not per sub-range
		}
		part, err := p.scan(&segCtx{si: t.si, seg: t.seg, g: t.g, bound: t.bound, lo: t.lo, hi: t.hi, stats: &taskStats[ti]})
		t.seg.Release()
		if err != nil {
			return err
		}
		partials[ti] = part
		if limit > 0 && part.rows > 0 {
			produced.Add(int64(part.rows))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	compact := make([]*partial, 0, len(partials))
	for ti, part := range partials {
		if faulted[ti] && stats != nil {
			stats.SegmentsFaulted++
		}
		if part != nil {
			if tasks[ti].lo == 0 {
				stats.touch(tasks[ti].si)
			}
			foldCounters(stats, &taskStats[ti])
			compact = append(compact, part)
		}
	}
	return p.finish(compact)
}

// pin makes the segment's data readable at the pipeline's residency tier.
func (p *pipeline) pin(seg *storage.Segment) (bool, error) {
	if p.encodedPin {
		return seg.AcquireEncoded()
	}
	return seg.Acquire()
}

// finish seals the pipeline and merges the per-task partials into the
// final result.
func (p *pipeline) finish(partials []*partial) (*Result, error) {
	if p.seal != nil {
		p.seal()
	}
	return mergePartials(p.out, partials), nil
}

// foldCounters folds one task's private scan counters into the caller's
// stats. The touch/prune/fault counters are the driver's; only the
// scan-internal counters live here.
func foldCounters(dst, src *StrategyStats) {
	if dst == nil {
		return
	}
	dst.IntermediateWords += src.IntermediateWords
	dst.DecodeSkips += src.DecodeSkips
	dst.EncodedBytes += src.EncodedBytes
}

// claimLoop runs fn(ti) for ti in [0, n) from workers goroutines claiming
// indices off a shared counter. A failed sibling stops the claim loop —
// the result is lost, so faulting more spilled segments in would be
// wasted I/O — as does stop() returning true (the limit's prefix test).
// The first error wins. Shared by every pipeline's fan-out and by
// ExecDelta's partial rescans.
func claimLoop(n, workers int, stop func() bool, fn func(ti int) error) error {
	var next atomic.Int64
	var failed atomic.Bool
	var errOnce sync.Once
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || (stop != nil && stop()) {
					return
				}
				ti := int(next.Add(1)) - 1
				if ti >= n {
					return
				}
				if err := fn(ti); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// buildRow is the fused row pipeline (paper Fig. 5): each segment's
// single covering group is scanned one chunk of tuples at a time with
// predicate push-down. Conjunctions of single-column comparisons compile
// to offset-bound predicates that FilterGroup evaluates; any other
// predicate shape is evaluated through a once-per-segment interpreted
// accessor, so disjunctive filters still stream (and fan out)
// segment-at-a-time.
func buildRow(rel *storage.Relation, q *query.Query, opts ExecOpts) (*pipeline, error) {
	out := Classify(q)
	if out.Kind == OutOther {
		return nil, ErrUnsupported
	}
	preds, splittable := SplitConjunction(q.Where)
	var generic expr.Pred
	var prunePreds []ColPred
	if splittable {
		prunePreds = preds
	} else {
		generic = q.Where
	}
	all := q.AllAttrs()
	return &pipeline{
		out:      out,
		preds:    prunePreds,
		limit:    limitFor(out, q),
		subsplit: true,
		resolve: func(seg *storage.Segment) (*storage.ColumnGroup, error) {
			g := bestCoveringGroupSeg(seg, q)
			if g == nil {
				return nil, fmt.Errorf("exec: no single group of a segment covers query attributes %v", all)
			}
			return g, nil
		},
		bind: func(g *storage.ColumnGroup) ([]GroupPred, error) {
			if !splittable {
				return nil, nil
			}
			bound, ok := BindPreds(g, preds)
			if !ok {
				return nil, fmt.Errorf("exec: predicate attributes missing from group %v", g.Attrs)
			}
			return bound, nil
		},
		scan: func(c *segCtx) (*partial, error) {
			return scanRange(c.g, out, c.bound, generic, c.lo, c.hi), nil
		},
	}, nil
}

// buildColumn is the column-at-a-time late-materialization pipeline
// (paper §2.1).
func buildColumn(rel *storage.Relation, q *query.Query, opts ExecOpts) (*pipeline, error) {
	out, preds, err := splittableShape(q)
	if err != nil {
		return nil, err
	}
	return &pipeline{
		out:   out,
		preds: preds,
		limit: limitFor(out, q),
		scan: func(c *segCtx) (*partial, error) {
			return columnSegPartial(c.seg, out, preds, c.stats)
		},
	}, nil
}

// buildHybrid is the multi-group selection-vector pipeline (Fig. 6's
// q1_sel_vector generalized to whatever groups cover each segment).
func buildHybrid(rel *storage.Relation, q *query.Query, opts ExecOpts) (*pipeline, error) {
	out, preds, err := splittableShape(q)
	if err != nil {
		return nil, err
	}
	return &pipeline{
		out:   out,
		preds: preds,
		limit: limitFor(out, q),
		scan: func(c *segCtx) (*partial, error) {
			return hybridSegPartial(c.seg, q, out, preds, c.stats)
		},
	}, nil
}

// buildEncoded is the encoded-direct pipeline: aggregate-shaped queries
// fold and projections materialize straight from the per-column encoded
// blocks of sealed segments. Routing is per segment — segments whose
// needed groups hold encodings take the block operators, flat segments
// (the mutable tail, never-sealed residents) take the flat operators — so
// a query over a mixed relation is served segment by segment instead of
// declining whole-query when pruning leaves only flat segments.
func buildEncoded(rel *storage.Relation, q *query.Query, opts ExecOpts) (*pipeline, error) {
	out := Classify(q)
	if out.Kind != OutGrouped && out.Kind != OutProjection {
		return nil, ErrUnsupported
	}
	preds, splittable := SplitConjunction(q.Where)
	if !splittable {
		return nil, ErrUnsupported
	}
	limit := limitFor(out, q)
	scan := func(c *segCtx) (*partial, error) {
		return segmentPartial(c.seg, q, out, preds, true, c.stats)
	}
	if out.Kind == OutProjection {
		scan = func(c *segCtx) (*partial, error) {
			return encodedProjectionPartial(c.seg, q, out, preds, limit, c.stats)
		}
	}
	return &pipeline{
		out:        out,
		preds:      preds,
		limit:      limit,
		encodedPin: true,
		scan:       scan,
	}, nil
}

// buildGeneric is the interpreted pipeline (paper §3.4): a
// tuple-at-a-time operator reading through per-attribute accessor
// indirection. It serves every select shape the template pipelines
// refuse, except one that mixes aggregates with plain columns outside
// GROUP BY keys: that shape has no executor at all, so it gets a
// definitive error instead of ErrUnsupported.
func buildGeneric(rel *storage.Relation, q *query.Query, opts ExecOpts) (*pipeline, error) {
	prunePreds, splittable := SplitConjunction(q.Where)
	if !splittable {
		prunePreds = nil
	}
	out := Classify(q)
	if len(q.GroupBy) > 0 || q.HasAggregates() {
		if out.Kind != OutGrouped {
			return nil, fmt.Errorf("exec: query %q: every select item must be an aggregate or a group-by column", q.String())
		}
		return &pipeline{
			out:   out,
			preds: prunePreds,
			scan: func(c *segCtx) (*partial, error) {
				p := newPartial(out)
				if err := genericGroupedSegmentScan(c.seg, q, out, p.groups); err != nil {
					return nil, err
				}
				return p, nil
			},
		}, nil
	}
	return &pipeline{
		out:   out,
		preds: prunePreds,
		limit: q.Limit,
		scan: func(c *segCtx) (*partial, error) {
			p := &partial{}
			if err := genericSegmentScan(c.seg, q, p); err != nil {
				return nil, err
			}
			return p, nil
		},
	}, nil
}

// buildReorg fuses layout creation with query answering (paper §3.2,
// Fig. 13). Hot segments (HotMask, minus already-adapted ones) bypass
// pruning — they must be stitched regardless — and split into
// chunk-aligned ranges that run the fused stitch-and-evaluate operator
// over one shared Stitcher per segment; the new groups are finished and
// recorded after every range has run. Cold segments run the hybrid
// operator over their existing layout, pruned as usual. Shapes outside
// the reorganizing template stitch the new groups up front and answer
// through the generic pipeline (two passes over the hot segments).
func buildReorg(rel *storage.Relation, q *query.Query, opts ExecOpts) (*pipeline, error) {
	if len(opts.ReorgAttrs) == 0 {
		return nil, fmt.Errorf("exec: StrategyReorg needs ExecOpts.ReorgAttrs")
	}
	norm := data.SortedUnique(opts.ReorgAttrs)
	hot := func(si int, seg *storage.Segment) bool {
		if opts.HotMask != nil && !opts.HotMask[si] {
			return false
		}
		_, exists := seg.ExactGroup(norm)
		return !exists // an adapted segment has nothing to stitch
	}
	newGroups := make([]*storage.ColumnGroup, len(rel.Segments))
	if opts.NewGroups != nil {
		*opts.NewGroups = newGroups
	}
	out := Classify(q)
	preds, splittable := SplitConjunction(q.Where)
	if out.Kind == OutOther || !splittable || !data.ContainsAll(norm, q.AllAttrs()) {
		// Shape outside the reorganizing template: build the layouts with
		// the plain per-segment stitch and answer via the generic pipeline.
		for si, seg := range rel.Segments {
			if !hot(si, seg) {
				continue
			}
			g, err := storage.StitchSeg(seg, norm)
			if err != nil {
				return nil, err
			}
			newGroups[si] = g
		}
		return buildGeneric(rel, q, opts)
	}
	const rangeRows = reorgRangeChunks * VectorSize
	segs := make([]*reorgSeg, len(rel.Segments))
	for si, seg := range rel.Segments {
		if seg.Rows == 0 || !hot(si, seg) {
			continue
		}
		rs, err := newReorgSeg(seg, norm, preds, rangeRows)
		if err != nil {
			return nil, err
		}
		segs[si] = rs
	}
	return &pipeline{
		out:   out,
		preds: preds,
		force: func(si int, _ *storage.Segment) bool { return segs[si] != nil },
		rangeRows: func(si int) int {
			if segs[si] == nil {
				return 0
			}
			return rangeRows
		},
		scan: func(c *segCtx) (*partial, error) {
			if rs := segs[c.si]; rs != nil {
				return rs.scanRange(c.seg, out, c.lo, c.hi), nil
			}
			// Cold segment: answer from the existing layout. Stats stay nil
			// — intermediate accounting belongs to the cost-compared
			// strategies, not the reorganizing operator's cold remainder.
			return hybridSegPartial(c.seg, q, out, preds, nil)
		},
		seal: func() {
			for si, rs := range segs {
				if rs != nil {
					newGroups[si] = rs.finish()
				}
			}
		},
	}, nil
}

// splittableShape is the shared shape gate of the selection-vector
// pipelines: a classifiable output and a splittable conjunction.
func splittableShape(q *query.Query) (Outputs, []ColPred, error) {
	out := Classify(q)
	if out.Kind == OutOther {
		return out, nil, ErrUnsupported
	}
	preds, splittable := SplitConjunction(q.Where)
	if !splittable {
		return out, nil, ErrUnsupported
	}
	return out, preds, nil
}
