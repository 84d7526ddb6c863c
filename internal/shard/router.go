// Package shard serves one logical table from N in-process engines behind
// a scatter-gather router. Placement is round-robin at segment granularity:
// segment-sized chunks of the append stream deal onto shards in rotation,
// so global segment gi lives on shard gi % N at local index gi / N, and
// every shard-local segment boundary coincides with a global one — zone
// maps, pruning and per-segment partial aggregates are bit-identical to
// the single-engine layout of the same rows. Layout adaptation stays
// entirely per shard: each engine watches only the queries it executes and
// reorganizes its own segments.
//
// Aggregate and GROUP BY queries scatter to every shard whose zone maps
// survive pruning; each shard returns its per-segment partial aggregates
// (exec.SegPartial) and the router merges them under the partials merge
// law — the same combinators the serving layer's delta repair uses. The
// published fingerprint is the order-sensitive combination of the
// per-shard fingerprints (core.CombineFingerprints), so the serving
// layer's three-tier admission works unchanged on top: an exact hit needs
// every shard's component unmoved, and on repair admission only shards
// whose component moved rescan — a tail append repairs exactly one shard.
//
// The router holds its shard engines directly. The scatter-gather paths
// call only their query-path methods — Execute, QueryFingerprint,
// QueryDelta, ScanPartials — and exchange queries, results, fingerprints
// and per-segment partials, never storage internals.
//
// Join queries are declined with exec.ErrUnsupported for now. The gather
// seam they will use is the same one aggregates use today: build the join's
// hash table once from the (greedily chosen, usually small) build side,
// broadcast it to every shard of the probe side, scatter the probe as a
// shard-local ExecJoin, and gather the per-shard partials under the
// existing merge law — probe segments are disjoint across shards, so the
// per-shard join partials merge exactly like single-relation ones. Only
// the broadcast is new.
package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// Router scatter-gathers one logical table over N shards. It implements
// core.Table, as a core.Engine bound to the unsharded table does, so the
// facade and the serving layer sit on either one interchangeably.
type Router struct {
	engines []*core.Engine
	segCap  int
	width   int

	// mu guards the append cursor. Placement must be deterministic in
	// arrival order — chunk k of the logical append stream always lands on
	// shard k % N — so inserts serialize here (the per-shard engines
	// serialize appends anyway).
	mu sync.Mutex
	// cur is the shard owning the open (not yet segment-aligned) chunk;
	// fill is how many rows of that chunk have been appended.
	cur  int
	fill int
}

var _ core.Table = (*Router)(nil)

// New builds a router over opts.Shards in-process engines and deals t's
// rows onto them in segment-sized round-robin chunks. Each shard engine
// runs with opts, except Shards is reset to 1 and Parallelism (when set)
// divides across the shards. opts.Shards < 2 still builds a (one-shard)
// router so callers have a single code path; the facade keeps the plain
// engine for that case instead.
func New(t *data.Table, opts core.Options) *Router {
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	segCap := opts.SegmentCapacity
	if segCap <= 0 {
		segCap = storage.DefaultSegmentCapacity
	}
	shardOpts := opts
	shardOpts.Shards = 1
	if opts.Parallelism > 1 {
		per := opts.Parallelism / n
		if per < 1 {
			per = 1
		}
		shardOpts.Parallelism = per
	}
	r := &Router{
		engines: make([]*core.Engine, n),
		segCap:  segCap,
		width:   t.Schema.NumAttrs(),
	}
	for s, sub := range splitTable(t, n, segCap) {
		r.engines[s] = core.New(storage.BuildColumnMajorSeg(sub, segCap), shardOpts)
	}
	// Resume the append cursor at the chunk the initial deal left open:
	// chunk L = (Rows-1)/segCap went to shard L%n with Rows-L*segCap rows.
	if t.Rows > 0 {
		last := (t.Rows - 1) / segCap
		r.cur = last % n
		r.fill = t.Rows - last*segCap
	}
	return r
}

// splitTable deals t's rows into n sub-tables: chunk i (rows [i*segCap,
// (i+1)*segCap)) goes to shard i%n. Concatenated per shard, chunk
// boundaries become exactly the shard relation's segment boundaries.
func splitTable(t *data.Table, n, segCap int) []*data.Table {
	subs := make([]*data.Table, n)
	for s := range subs {
		cols := make([][]data.Value, len(t.Cols))
		for a := range cols {
			cols[a] = []data.Value{}
		}
		subs[s] = &data.Table{Schema: t.Schema, Cols: cols}
	}
	for lo := 0; lo < t.Rows; lo += segCap {
		hi := lo + segCap
		if hi > t.Rows {
			hi = t.Rows
		}
		sub := subs[(lo/segCap)%n]
		for a, col := range t.Cols {
			sub.Cols[a] = append(sub.Cols[a], col[lo:hi]...)
		}
		sub.Rows += hi - lo
	}
	return subs
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.engines) }

// EngineAt returns shard s's engine. Tests and tools use it; the query
// path never does.
func (r *Router) EngineAt(s int) *core.Engine { return r.engines[s] }

// scatter runs fn once per shard concurrently and returns the first error
// in shard order.
func (r *Router) scatter(fn func(s int, e *core.Engine) error) error {
	errs := make([]error, len(r.engines))
	var wg sync.WaitGroup
	for s, e := range r.engines {
		wg.Add(1)
		go func(s int, e *core.Engine) {
			defer wg.Done()
			errs[s] = fn(s, e)
		}(s, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Execute scatters q to every shard that survives pruning and gathers one
// result. Repairable shapes (aggregates, GROUP BY — with or without LIMIT)
// merge per-segment partial aggregates; everything else concatenates row
// results in shard order.
func (r *Router) Execute(q *query.Query) (*exec.Result, core.ExecInfo, error) {
	if len(q.Joins) > 0 {
		// Joins need a relation to build a hash table from and one to
		// probe; a sharded table has neither in one place. The gather seam
		// for joins is sketched in the package doc — until it exists,
		// decline cleanly so callers can route to unsharded engines.
		return nil, core.ExecInfo{}, fmt.Errorf("shard: join queries are not supported on sharded tables: %w", exec.ErrUnsupported)
	}
	start := time.Now()
	qx := q
	if q.Limit != 0 {
		// Partials carry complete per-segment state; the limit applies
		// only to the merged output, so strip it from the scattered query
		// (mirrors the serving layer's normalization).
		cp := *q
		cp.Limit = 0
		qx = &cp
	}
	var (
		res  *exec.Result
		info core.ExecInfo
		err  error
	)
	if exec.Repairable(qx) {
		res, info, err = r.execPartials(q, qx)
	} else {
		res, info, err = r.execRows(q)
	}
	if err != nil {
		return nil, core.ExecInfo{}, err
	}
	info.Duration = time.Since(start)
	return res, info, nil
}

// execPartials is the scatter-gather aggregate path: shard 0 always scans
// (it anchors the merged result's shape), other shards scan unless their
// zone maps rule every segment out, and the per-shard partials merge under
// the partials merge law.
func (r *Router) execPartials(q, qx *query.Query) (*exec.Result, core.ExecInfo, error) {
	scans := make([]*core.DeltaScan, len(r.engines))
	fps := make([]core.TouchFingerprint, len(r.engines))
	err := r.scatter(func(s int, e *core.Engine) error {
		if s > 0 {
			if fp := e.QueryFingerprint(qx); fp.Segments == 0 {
				// Pruned out entirely: skip the scan, but the shard's
				// fingerprint still mixes into the combined key — growth
				// into the candidate set must move the published
				// fingerprint.
				fps[s] = fp
				return nil
			}
		}
		ds, err := scanShardPartials(e, qx)
		if err != nil {
			return err
		}
		scans[s], fps[s] = ds, ds.Fingerprint
		return nil
	})
	if err != nil {
		return nil, core.ExecInfo{}, err
	}
	fresh, _, info := r.merge(scans, fps)
	res := fresh.Result()
	trimLimit(q, res)
	info.Strategy = exec.StrategyDelta
	return res, info, nil
}

// scanShardPartials obtains one shard's complete partial scan. The shard's
// adaptive machinery may decline the shared-lock delta path when an
// adaptation phase is due or a pending layout proposal covers the query;
// running the full Exec path once lets that adaptation (and any lazy
// reorganization) happen, then the partial scan is retried. The terminal
// fallback bypasses the adaptive gate — never the merge law.
func scanShardPartials(e *core.Engine, q *query.Query) (*core.DeltaScan, error) {
	for attempt := 0; attempt < 2; attempt++ {
		ds, ok, err := e.QueryDelta(q, nil)
		if err != nil {
			return nil, err
		}
		if ok {
			return ds, nil
		}
		if _, _, err := e.Execute(q); err != nil {
			return nil, err
		}
	}
	return e.ScanPartials(q)
}

// execRows is the scatter-gather path for non-mergeable shapes
// (projections, expression outputs): each surviving shard executes the
// query in full and the row blocks concatenate in shard order. Shard 0
// always executes so shape errors surface deterministically and the
// output column labels have an anchor.
func (r *Router) execRows(q *query.Query) (*exec.Result, core.ExecInfo, error) {
	results := make([]*exec.Result, len(r.engines))
	infos := make([]core.ExecInfo, len(r.engines))
	fps := make([]core.TouchFingerprint, len(r.engines))
	err := r.scatter(func(s int, e *core.Engine) error {
		if s > 0 {
			if fp := e.QueryFingerprint(q); fp.Segments == 0 {
				fps[s] = fp
				return nil
			}
		}
		res, info, err := e.Execute(q)
		if err != nil {
			return err
		}
		results[s], infos[s], fps[s] = res, info, info.Fingerprint
		return nil
	})
	if err != nil {
		return nil, core.ExecInfo{}, err
	}
	n := len(r.engines)
	out := &exec.Result{Cols: results[0].Cols}
	info := core.ExecInfo{
		Strategy: infos[0].Strategy,
		Layout:   infos[0].Layout,
	}
	for s, res := range results {
		if res == nil {
			continue
		}
		out.Data = append(out.Data, res.Data[:res.Rows*len(res.Cols)]...)
		out.Rows += res.Rows
		addCounters(&info, infos[s].SegmentsScanned, infos[s].SegmentsPruned,
			infos[s].SegmentsFaulted, infos[s].DecodeSkips, infos[s].EncodedBytes)
		for _, li := range infos[s].SegmentsTouched {
			info.SegmentsTouched = append(info.SegmentsTouched, li*n+s)
		}
	}
	sort.Ints(info.SegmentsTouched)
	info.Fingerprint = core.CombineFingerprints(fps)
	trimLimit(q, out)
	return out, info, nil
}

// merge renumbers the per-shard scans into the global segment space
// (global = local*N + shard) and folds them into one fresh PartialResult,
// one reused list and one ExecInfo with the combined fingerprint. Shape
// metadata comes from the first scanned shard (always shard 0 on the
// paths that call this).
func (r *Router) merge(scans []*core.DeltaScan, fps []core.TouchFingerprint) (*exec.PartialResult, []int, core.ExecInfo) {
	n := len(r.engines)
	var (
		fresh  *exec.PartialResult
		reused []int
		info   core.ExecInfo
	)
	for s, ds := range scans {
		if ds == nil {
			continue
		}
		if fresh == nil {
			fresh = &exec.PartialResult{
				Labels:  ds.Fresh.Labels,
				Ops:     ds.Fresh.Ops,
				GroupBy: ds.Fresh.GroupBy,
				ItemKey: ds.Fresh.ItemKey,
				Segs:    make(map[int]*exec.SegPartial),
			}
			info.Layout = ds.Layout
		}
		for li, sp := range ds.Fresh.Segs {
			fresh.Segs[li*n+s] = sp
		}
		for _, li := range ds.Reused {
			reused = append(reused, li*n+s)
		}
		addCounters(&info, ds.Stats.SegmentsScanned, ds.Stats.SegmentsPruned,
			ds.Stats.SegmentsFaulted, ds.Stats.DecodeSkips, ds.Stats.EncodedBytes)
		for _, li := range ds.Stats.Touched {
			info.SegmentsTouched = append(info.SegmentsTouched, li*n+s)
		}
	}
	sort.Ints(info.SegmentsTouched)
	sort.Ints(reused)
	info.SegmentsScanned = len(info.SegmentsTouched)
	info.Fingerprint = core.CombineFingerprints(fps)
	return fresh, reused, info
}

func addCounters(info *core.ExecInfo, scanned, pruned, faulted, decodeSkips int, encodedBytes int64) {
	info.SegmentsScanned += scanned
	info.SegmentsPruned += pruned
	info.SegmentsFaulted += faulted
	info.DecodeSkips += decodeSkips
	info.EncodedBytes += encodedBytes
}

// trimLimit applies q's LIMIT to the gathered result (the scattered
// queries ran unlimited, or per-shard limited on the row path).
func trimLimit(q *query.Query, res *exec.Result) {
	if q.Limit <= 0 || res.Rows <= q.Limit {
		return
	}
	res.Rows = q.Limit
	res.Data = res.Data[:q.Limit*len(res.Cols)]
}

// QueryFingerprint returns the combination of the per-shard candidate-touch
// fingerprints, in shard order — the key the serving layer caches under.
func (r *Router) QueryFingerprint(q *query.Query) core.TouchFingerprint {
	fps := make([]core.TouchFingerprint, len(r.engines))
	for s, e := range r.engines {
		fps[s] = e.QueryFingerprint(q)
	}
	return core.CombineFingerprints(fps)
}

// QueryDelta is the router's repair tier: have is keyed by global segment
// index; each shard rescans only its candidates whose versions moved. A
// shard whose zone maps rule the query out entirely is skipped — its
// payload entries drop, exactly as a single engine drops pruned segments.
// Any shard declining (its adaptive machinery wants the full path)
// declines the whole repair; the serving layer then falls back to full
// execution, which runs that shard's adaptation.
func (r *Router) QueryDelta(q *query.Query, have map[int]uint64) (*core.DeltaScan, bool, error) {
	if !exec.Repairable(q) {
		// Join queries always land here (never repairable) and decline to
		// the full path, where Execute rejects them with ErrUnsupported.
		return nil, false, nil
	}
	n := len(r.engines)
	haveS := make([]map[int]uint64, n)
	for gi, v := range have {
		s := gi % n
		if haveS[s] == nil {
			haveS[s] = make(map[int]uint64, len(have)/n+1)
		}
		haveS[s][gi/n] = v
	}
	scans := make([]*core.DeltaScan, n)
	fps := make([]core.TouchFingerprint, n)
	declined := make([]bool, n)
	err := r.scatter(func(s int, e *core.Engine) error {
		if s > 0 {
			if fp := e.QueryFingerprint(q); fp.Segments == 0 {
				fps[s] = fp
				return nil
			}
		}
		ds, ok, err := e.QueryDelta(q, haveS[s])
		if err != nil {
			return err
		}
		if !ok {
			declined[s] = true
			return nil
		}
		scans[s], fps[s] = ds, ds.Fingerprint
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	for _, d := range declined {
		if d {
			return nil, false, nil
		}
	}
	fresh, reused, info := r.merge(scans, fps)
	ds := &core.DeltaScan{
		Fresh:       fresh,
		Reused:      reused,
		Fingerprint: info.Fingerprint,
		Layout:      info.Layout,
	}
	ds.Stats.SegmentsScanned = info.SegmentsScanned
	ds.Stats.SegmentsPruned = info.SegmentsPruned
	ds.Stats.SegmentsFaulted = info.SegmentsFaulted
	ds.Stats.DecodeSkips = info.DecodeSkips
	ds.Stats.EncodedBytes = info.EncodedBytes
	ds.Stats.Touched = info.SegmentsTouched
	return ds, true, nil
}

// Insert appends tuples in arrival order, slicing the batch at chunk
// boundaries so placement stays round-robin: the open chunk fills to
// segment capacity on the current shard, then the cursor rotates. A tail
// append that stays within one chunk therefore bumps exactly one shard's
// fingerprint component.
func (r *Router) Insert(tuples [][]data.Value) error {
	for i, tup := range tuples {
		if len(tup) != r.width {
			return fmt.Errorf("shard: insert tuple %d has %d values, schema has %d attributes", i, len(tup), r.width)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(tuples) > 0 {
		room := r.segCap - r.fill
		if room <= 0 {
			r.cur = (r.cur + 1) % len(r.engines)
			r.fill = 0
			room = r.segCap
		}
		nrows := len(tuples)
		if nrows > room {
			nrows = room
		}
		if err := r.engines[r.cur].Insert(tuples[:nrows]); err != nil {
			return err
		}
		r.fill += nrows
		tuples = tuples[nrows:]
	}
	return nil
}

// Version returns the highest shard version. The version clock is
// process-global and monotone, so any mutation on any shard mints a value
// greater than everything issued before — the maximum is itself monotone
// over the sharded table.
func (r *Router) Version() uint64 {
	var out uint64
	for _, e := range r.engines {
		out = max(out, e.Version())
	}
	return out
}

// SegmentVersions interleaves the shards' version vectors back into the
// global segment space: out[li*N+s] = shard s's local segment li. Slots
// past a shard's tail (the deal is ragged by up to one chunk) read 0.
func (r *Router) SegmentVersions() []uint64 {
	n := len(r.engines)
	per := make([][]uint64, n)
	length := 0
	for s, e := range r.engines {
		per[s] = e.SegmentVersions()
		if len(per[s]) > 0 {
			if l := (len(per[s])-1)*n + s + 1; l > length {
				length = l
			}
		}
	}
	out := make([]uint64, length)
	for s, vs := range per {
		for li, v := range vs {
			out[li*n+s] = v
		}
	}
	return out
}

// TierStats sums the per-shard storage-tier counters.
func (r *Router) TierStats() core.TierStats {
	var out core.TierStats
	for _, e := range r.engines {
		ts := e.TierStats()
		out.ResidentSegments += ts.ResidentSegments
		out.EncodedSegments += ts.EncodedSegments
		out.SpilledSegments += ts.SpilledSegments
		out.ResidentBytes += ts.ResidentBytes
		out.SpilledBytes += ts.SpilledBytes
		out.EncodedBytes += ts.EncodedBytes
		out.SpillFileBytes += ts.SpillFileBytes
		out.Faults += ts.Faults
		out.FaultedBytes += ts.FaultedBytes
		out.Evictions += ts.Evictions
		out.Demotions += ts.Demotions
		out.SpillWrites += ts.SpillWrites
		out.SpillErrors += ts.SpillErrors
	}
	return out
}

// Stats sums the per-shard engine-lifetime counters. Queries counts
// per-shard executions, so one scattered query counts once per shard it
// reached.
func (r *Router) Stats() core.Stats {
	var out core.Stats
	for _, e := range r.engines {
		st := e.Stats()
		out.Queries += st.Queries
		out.Adaptations += st.Adaptations
		out.Reorgs += st.Reorgs
		out.GroupsCreated += st.GroupsCreated
		out.GroupsDropped += st.GroupsDropped
		out.GenericFallback += st.GenericFallback
	}
	return out
}

// SetSegmentHeat does nothing.
//
// Deprecated: cache heat is gone; kept until the benchmark stops calling it (ROADMAP D2 + P).
func (r *Router) SetSegmentHeat(func() map[int]int) {}

// LayoutSignature joins the shards' layout signatures, "s<i>:"-prefixed
// and " | "-separated in shard order. Shards adapt independently, so the
// signatures legitimately diverge.
func (r *Router) LayoutSignature() string {
	var b strings.Builder
	for s, e := range r.engines {
		if s > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "s%d:%s", s, e.LayoutSignature())
	}
	return b.String()
}

// Close closes every shard.
func (r *Router) Close() {
	for _, e := range r.engines {
		e.Close()
	}
}
