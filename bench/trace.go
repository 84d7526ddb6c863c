package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"h2o"
	"h2o/internal/core"
	"h2o/internal/exec"
	"h2o/internal/query"
	"h2o/internal/server"
	"h2o/internal/shard"
	"h2o/internal/sql"
	"h2o/internal/storage"
)

// The traced run measures layers from outside: it re-enacts DB.QueryCtx with
// the layers' public functions — sql.Parse, Query.String, a server.Server
// over a Backend that wraps the catalog's Exec/Fingerprint/ExecDelta/Version
// — and records a span around each call. Spans inside the program are a
// later issue. One client drives it, so counts repeat exactly and a span's
// parent is simply the span open on the client's side.

// span is one timed call into a layer. Start and End are nanoseconds since
// the trace began; Parent is the index of the causing span, -1 for none; Op
// is the statement's sequence number.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Backend spans are
// recorded on the server's worker goroutines, hence the lock; with one
// client it is never contended.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
	op    int32
}

func (t *tracer) begin(name string, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: t.op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	now := time.Since(t.t0).Nanoseconds()
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// execRec is what the backend wrapper learned from one Exec or ExecDelta.
type execRec struct {
	span    int32
	info    core.ExecInfo
	grouped bool
	scanNS  int64 // replayed scan of the same strategy; 0 when not replayed
	rows    int64 // rows in the segments that scan read
}

// traced is the span-recording transcription of the facade's query path.
type traced struct {
	e       *env
	tr      *tracer
	srv     *server.Server
	schemas sql.SchemaMap
	parent  int32 // the open server.query span, parent of backend spans

	execs []execRec // every backend scan, full or delta, in order
	lat   []int64   // select latency net of replays, per select
	hits  []int64   // server.query spans that were exact cache hits
	// Cost-model replays: chosen-strategy time over best time - 1, and the
	// model's estimate over the measured time, per sampled select.
	regret, estRatio []float64
	gatherSelf       []int64 // shard.exec span minus its slowest replayed part
	replayFaults     core.TierStats
}

func newTraced(e *env) *traced {
	t := &traced{e: e, tr: &tracer{}, schemas: make(sql.SchemaMap), parent: -1}
	for name, tb := range e.tables {
		t.schemas[name] = tb.Schema
	}
	// The same sizing DB.QueryCtx gives its default server.
	t.srv = server.New(tracingBackend{t}, server.Config{})
	for _, name := range e.w.tables {
		name := name
		heat := func() map[int]int { return t.srv.SegmentHeat(name) }
		if eng, err := e.db.Engine(name); err == nil {
			eng.SetSegmentHeat(heat)
		} else if r, err := e.db.Router(name); err == nil {
			r.SetSegmentHeat(heat)
		}
	}
	return t
}

func (t *traced) close() { t.srv.Close() }

// layer names the module a backend call lands in.
func (t *traced) layer(q *query.Query) string {
	if _, err := t.e.db.Router(q.Table); err == nil {
		return "shard"
	}
	return "core"
}

func (t *traced) query(ctx context.Context, src string) (*h2o.Result, h2o.ExecInfo, error) {
	tr := t.tr
	if tr.on {
		tr.op++
	}
	if sql.IsInsert(src) {
		id := tr.begin("sql.parse_insert", -1)
		stmt, err := sql.ParseInsert(src, t.schemas)
		tr.end(id)
		if err != nil {
			return nil, h2o.ExecInfo{}, err
		}
		id = tr.begin("core.insert", -1)
		if eng, eerr := t.e.db.Engine(stmt.Table); eerr == nil {
			err = eng.Insert(stmt.Rows)
		} else if r, rerr := t.e.db.Router(stmt.Table); rerr == nil {
			err = r.Insert(stmt.Rows)
		} else {
			err = eerr
		}
		tr.end(id)
		return nil, h2o.ExecInfo{}, err
	}
	first := int32(len(tr.spans))
	id := tr.begin("sql.parse", -1)
	q, err := sql.Parse(src, t.schemas)
	tr.end(id)
	if err != nil {
		return nil, h2o.ExecInfo{}, err
	}
	// The server renders the canonical text itself; this extra call is the
	// outside measurement of that step.
	id = tr.begin("query.normalize", -1)
	_ = q.String()
	tr.end(id)
	id = tr.begin("server.query", -1)
	t.parent = id
	res, info, err := t.srv.Query(ctx, q)
	tr.end(id)
	t.parent = -1
	if err == nil && tr.on {
		if info.CacheHit {
			t.hits = append(t.hits, tr.spans[id].dur())
		}
		var net int64
		for _, s := range tr.spans[first:] {
			switch {
			case s.Parent == -1:
				net += s.dur()
			case isReplay(s.Name):
				net -= s.dur()
			}
		}
		t.lat = append(t.lat, net)
	}
	return res, info, err
}

func isReplay(name string) bool {
	switch name {
	case "exec.scan", "exec.join", "exec.delta_scan", "shard.part", "costmodel.replay":
		return true
	}
	return false
}

// tracingBackend wraps the catalog's four backend verbs in spans.
type tracingBackend struct{ t *traced }

func (b tracingBackend) Exec(q *query.Query) (*exec.Result, core.ExecInfo, error) {
	t := b.t
	id := t.tr.begin(t.layer(q)+".exec", t.parent)
	res, info, err := t.e.db.Exec(q)
	t.tr.end(id)
	if err == nil && id >= 0 {
		rec := execRec{span: id, info: info, grouped: len(q.GroupBy) > 0}
		t.replayExec(&rec, q)
		t.execs = append(t.execs, rec)
	}
	return res, info, err
}

func (b tracingBackend) Fingerprint(q *query.Query) (core.TouchFingerprint, error) {
	id := b.t.tr.begin(b.t.layer(q)+".fingerprint", b.t.parent)
	defer b.t.tr.end(id)
	return b.t.e.db.Fingerprint(q)
}

func (b tracingBackend) ExecDelta(q *query.Query, have map[int]uint64) (*core.DeltaScan, bool, error) {
	t := b.t
	id := t.tr.begin(t.layer(q)+".delta", t.parent)
	ds, ok, err := t.e.db.ExecDelta(q, have)
	t.tr.end(id)
	if err == nil && ok && id >= 0 {
		// Replay the bare scan the delta performed, for the exec ledger.
		rec := execRec{span: -1, grouped: len(q.GroupBy) > 0, info: core.ExecInfo{
			Strategy: exec.StrategyDelta, SegmentsScanned: ds.Stats.SegmentsScanned,
			SegmentsPruned: ds.Stats.SegmentsPruned, SegmentsFaulted: ds.Stats.SegmentsFaulted,
			DecodeSkips: ds.Stats.DecodeSkips, EncodedBytes: ds.Stats.EncodedBytes}}
		deltaScan := func(have map[int]uint64) scanFn {
			return func(rel *storage.Relation, st *exec.StrategyStats) error {
				_, _, err := exec.ExecDelta(rel, q, have, 1, st)
				return err
			}
		}
		if eng, eerr := t.e.db.Engine(q.Table); eerr == nil {
			_, _ = t.replayScan(eng, &rec, "exec.delta_scan", id, deltaScan(have))
		} else if r, rerr := t.e.db.Router(q.Table); rerr == nil {
			t.replayShards(&rec, id, r, func(s int) scanFn {
				// The router's own split: global segment gi is shard gi%N's
				// local segment gi/N.
				var local map[int]uint64
				if have != nil {
					local = make(map[int]uint64)
					for gi, v := range have {
						if gi%r.Shards() == s {
							local[gi/r.Shards()] = v
						}
					}
				}
				return deltaScan(local)
			})
		}
		t.execs = append(t.execs, rec)
	}
	return ds, ok, err
}

// Version is an atomic read; a span around it would cost more than the call.
func (b tracingBackend) Version(table string) (uint64, error) {
	return b.t.e.db.Version(table)
}

// scanFn is a bare call into internal/exec over a read-locked relation.
type scanFn func(*storage.Relation, *exec.StrategyStats) error

// replayScan times fn — a bare exec call — under the engine's read lock, as
// a child span of parent, and books the faults it caused so the storage
// ledger can leave them out.
func (t *traced) replayScan(eng *h2o.Engine, rec *execRec, name string, parent int32, fn scanFn) (int64, error) {
	before := eng.TierStats()
	var st exec.StrategyStats
	var rows int64
	var id int32
	err := eng.View(func(rel *storage.Relation) error {
		id = t.tr.begin(name, parent)
		err := fn(rel, &st)
		t.tr.end(id)
		for _, si := range st.Touched {
			rows += int64(rel.Segments[si].Rows)
		}
		return err
	})
	after := eng.TierStats()
	t.replayFaults.Faults += after.Faults - before.Faults
	t.replayFaults.FaultedBytes += after.FaultedBytes - before.FaultedBytes
	if err != nil {
		return 0, err
	}
	ns := t.tr.spans[id].dur()
	if rec != nil {
		rec.scanNS, rec.rows = rec.scanNS+ns, rec.rows+rows
	}
	return ns, nil
}

// replayExec re-runs the scan behind one full execution from outside: the
// same strategy through exec.Exec (exec.ExecJoin for joins, one partial
// scan per shard for routed queries). Every 16th single-engine execution is
// also replayed under each strategy the cost model compares.
func (t *traced) replayExec(rec *execRec, q *query.Query) {
	db := t.e.db
	if len(q.Joins) > 0 {
		left, lerr := db.Engine(q.Table)
		right, rerr := db.Engine(q.Joins[0].Table)
		if lerr != nil || rerr != nil || left == right {
			return
		}
		// Same lock order as the facade: by table name.
		first, second, swapped := left, right, q.Joins[0].Table < q.Table
		if swapped {
			first, second = right, left
		}
		id := t.tr.begin("exec.join", rec.span)
		_ = first.View(func(a *storage.Relation) error {
			return second.View(func(b *storage.Relation) error {
				if swapped {
					a, b = b, a
				}
				_, err := exec.ExecJoin(a, b, q, exec.ExecOpts{})
				return err
			})
		})
		t.tr.end(id)
		rec.scanNS = t.tr.spans[id].dur()
		return
	}
	if r, err := db.Router(q.Table); err == nil {
		if exec.Repairable(q) {
			t.replayShards(rec, rec.span, r, func(int) scanFn {
				return func(rel *storage.Relation, st *exec.StrategyStats) error {
					_, err := exec.ExecPartials(rel, q, st)
					return err
				}
			})
		}
		return
	}
	eng, err := db.Engine(q.Table)
	if err != nil || rec.info.Strategy == exec.StrategyReorg {
		return // a reorganization cannot be replayed without repeating it
	}
	chosen := rec.info.Strategy
	run := func(s exec.Strategy) scanFn {
		return func(rel *storage.Relation, st *exec.StrategyStats) error {
			_, err := exec.Exec(rel, q, exec.ExecOpts{Strategy: s, Stats: st})
			return err
		}
	}
	if _, err := t.replayScan(eng, rec, "exec.scan", rec.span, run(chosen)); err != nil {
		return
	}
	if len(t.execs)%16 != 0 {
		return
	}
	best := rec.scanNS
	for _, s := range exec.CostedStrategies() {
		if s == chosen {
			continue
		}
		if ns, err := t.replayScan(eng, nil, "costmodel.replay", rec.span, run(s)); err == nil && ns < best {
			best = ns
		}
	}
	if best > 0 {
		t.regret = append(t.regret, float64(rec.scanNS)/float64(best)-1)
		t.estRatio = append(t.estRatio, float64(rec.info.EstimatedCost)*1e9/float64(rec.scanNS))
	}
}

// replayShards times each shard's part of a routed call on its own. The
// router waits for all parts, so the slowest sets the time; what is left of
// the router's span is its own scatter and gather work.
func (t *traced) replayShards(rec *execRec, parent int32, r *shard.Router, part func(s int) scanFn) {
	var slowest int64
	for s := 0; s < r.Shards(); s++ {
		eng := r.EngineAt(s)
		if eng == nil {
			return
		}
		ns, err := t.replayScan(eng, rec, "shard.part", parent, part(s))
		if err != nil {
			return
		}
		if ns > slowest {
			slowest = ns
		}
	}
	t.gatherSelf = append(t.gatherSelf, t.tr.spans[parent].dur()-slowest)
}

// selfTimes returns, for every span called name, its duration minus the
// part of its interval that other spans of the same statement cover.
func selfTimes(spans []span, name string) []int64 {
	var out []int64
	for i, x := range spans {
		if x.Name != name {
			continue
		}
		var inside []span
		for j := i + 1; j < len(spans) && spans[j].Op == x.Op; j++ {
			if s := spans[j]; s.Start >= x.Start && s.End <= x.End {
				inside = append(inside, s)
			}
		}
		sort.Slice(inside, func(a, b int) bool { return inside[a].Start < inside[b].Start })
		covered, until := int64(0), x.Start
		for _, s := range inside {
			if s.End <= until {
				continue
			}
			if s.Start > until {
				until = s.Start
			}
			covered += s.End - until
			until = s.End
		}
		out = append(out, x.dur()-covered)
	}
	return out
}

func spanDurs(spans []span, names ...string) []int64 {
	var out []int64
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, s.dur())
			}
		}
	}
	return out
}

func quantileOf(vals []int64, p float64) float64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantileNS(s, p)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedOpCount is the fixed length of the traced replay: counts repeat
// exactly only if both runs consume the same ops.
func tracedOpCount(w *workloadSpec, cfg runConfig) int {
	n := int(float64(w.tracedOps) * cfg.scale * cfg.seconds / 10)
	if n < 64 {
		n = 64
	}
	return n
}

// tracedRun is the --trace 1 measurement: the same one-client op sequence
// first through DB.QueryCtx (the untraced reference for the tracing
// overhead), then on a fresh catalog through the span-recording path.
func tracedRun(ctx context.Context, w *workloadSpec, cfg runConfig, traceOut string) (*report, error) {
	rep := newReport()
	n := tracedOpCount(w, cfg)

	e, err := build(w, cfg)
	if err != nil {
		return nil, err
	}
	if w.phaseOps == 0 {
		if err := e.warm(ctx, facade{e.db}); err != nil {
			e.close()
			return nil, err
		}
	}
	ref := e.runClients(ctx, facade{e.db}, 1, 0, n, newOracle(e.tables))
	e.close()

	if e, err = build(w, cfg); err != nil {
		return nil, err
	}
	defer e.close()
	t := newTraced(e)
	defer t.close()
	if w.phaseOps == 0 {
		if err := e.warm(ctx, t); err != nil {
			return nil, err
		}
	}
	before := t.srv.Stats()
	t.tr.t0, t.tr.on = time.Now(), true
	rl := e.runClients(ctx, t, 1, 0, n, newOracle(e.tables))
	t.tr.on = false

	rep.Attempted, rep.Failed = ref.ops+rl.ops, ref.errs+rl.errs
	for _, l := range []*runLog{ref, rl} {
		if l.firstErr != nil {
			rep.fail("%d ops failed, first: %v", l.errs, l.firstErr)
		}
	}
	rep.Counts["traced_ops"] = rl.ops
	t.ledger(rep, ref, before)
	if err := t.probes(rep); err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, t.tr.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ledger turns the spans and the differenced public counters into the
// per-layer metrics.
func (t *traced) ledger(rep *report, ref *runLog, before server.Stats) {
	spans := t.tr.spans
	set := func(name string, v float64) { rep.set(perLayer, name, v) }
	p50 := func(name string, vals []int64) {
		set(name, quantileOf(vals, 0.5)/1e3)
		rep.Samples[name] = len(vals)
	}
	layer := "core"
	if t.e.w.name == "shard_churn" {
		layer = "shard"
	}

	p50("sql.parse_us_p50", spanDurs(spans, "sql.parse"))
	p50("sql.parse_insert_us_p50", spanDurs(spans, "sql.parse_insert"))
	p50("query.normalize_us_p50", spanDurs(spans, "query.normalize"))

	st := t.srv.Stats()
	selects := float64(st.Submitted - before.Submitted)
	repaired := float64(st.Repaired - before.Repaired)
	set("server.hit_ratio", ratio(float64(st.CacheHits-before.CacheHits), selects))
	set("server.memo_hit_ratio", ratio(float64(st.MemoHits-before.MemoHits), selects))
	set("server.repair_ratio", ratio(repaired, selects))
	set("server.repaired_segments_per_repair", ratio(float64(st.RepairedSegments-before.RepairedSegments), repaired))
	set("server.miss_ratio", ratio(float64(st.CacheMisses-before.CacheMisses)-repaired, selects))
	set("server.republished_ratio", ratio(float64(st.Republished-before.Republished), selects))
	set("server.uncacheable_ratio", ratio(float64(st.Uncacheable-before.Uncacheable), selects))
	rep.Counts["server.selects"] = int(selects)
	rep.Counts["server.hits"] = int(st.CacheHits - before.CacheHits)
	rep.Counts["server.repaired"] = int(repaired)
	rep.Counts["server.misses"] = int(st.CacheMisses-before.CacheMisses) - int(repaired)

	p50("server.hit_us_p50", t.hits)
	p50("server.self_us_p50", selfTimes(spans, "server.query"))
	set("server.select_p99_us", quantileOf(t.lat, 0.99)/1e3)
	rep.Samples["server.select_p99_us"] = len(t.lat)

	fps := spanDurs(spans, "core.fingerprint")
	p50("core.fingerprint_us_p50", fps)
	set("core.fingerprint_calls_per_select", ratio(float64(len(fps)+len(spanDurs(spans, "shard.fingerprint"))), selects))
	p50("core.delta_us_p50", spanDurs(spans, "core.delta"))
	execDurs := spanDurs(spans, "core.exec")
	p50("core.exec_us_p50", execDurs)
	set("core.exec_us_p95", quantileOf(execDurs, 0.95)/1e3)
	p50("core.insert_us_p50", spanDurs(spans, "core.insert"))

	// The exec ledger: every scan the backend performed, full or delta.
	var self, scans, grouped, joins []int64
	var scanNS, scanRows, segs, pruned, skips, encBytes, faults, reorgSegs int64
	var reorgNS, compileNS time.Duration
	byStrategy := map[exec.Strategy]int{}
	for _, r := range t.execs {
		byStrategy[r.info.Strategy]++
		segs += int64(r.info.SegmentsScanned)
		pruned += int64(r.info.SegmentsPruned)
		skips += int64(r.info.DecodeSkips)
		encBytes += r.info.EncodedBytes
		faults += int64(r.info.SegmentsFaulted)
		compileNS += r.info.CompileTime
		if r.info.Reorganized {
			reorgSegs += int64(r.info.SegmentsReorganized)
			reorgNS += r.info.Duration
		}
		if r.scanNS == 0 {
			continue
		}
		scanNS, scanRows = scanNS+r.scanNS, scanRows+r.rows
		switch {
		case r.info.Strategy == exec.StrategyJoin:
			joins = append(joins, r.scanNS)
		case r.grouped:
			grouped = append(grouped, r.scanNS)
		}
		if r.span >= 0 && r.info.Strategy != exec.StrategyJoin && layer == "core" {
			scans = append(scans, r.scanNS)
			self = append(self, spans[r.span].dur()-r.scanNS)
		}
	}
	executed := float64(len(t.execs))
	p50("core.self_us_p50", self)
	p50("exec.scan_us_p50", scans)
	p50("exec.grouped_us_p50", grouped)
	p50("exec.join_us_p50", joins)
	set("exec.rows_per_s", ratio(float64(scanRows), float64(scanNS)/1e9))
	set("exec.segments_scanned_per_select", ratio(float64(segs), executed))
	set("exec.prune_ratio", ratio(float64(pruned), float64(pruned+segs)))
	for s := exec.StrategyRow; s <= exec.StrategyJoin; s++ {
		set("exec.strategy_share."+s.String(), ratio(float64(byStrategy[s]), executed))
	}
	set("exec.decode_skips_per_select", ratio(float64(skips), executed))
	set("exec.encoded_kb_per_select", ratio(float64(encBytes)/1024, executed))
	set("storage.faults_per_select", ratio(float64(faults), selects))
	rep.Counts["exec.executed"] = len(t.execs)
	rep.Counts["exec.segments_scanned"] = int(segs)

	// Engine-lifetime counters; exact, because one client drove the run.
	var cs h2o.Stats
	var ts h2o.TierStats
	window := 0
	main := t.e.w.tables[0]
	if r, err := t.e.db.Router(main); err == nil {
		cs, ts, window = r.Stats(), r.TierStats(), r.EngineAt(0).WindowSize()
		var rows []float64
		total := 0.0
		for s := 0; s < r.Shards(); s++ {
			_ = r.EngineAt(s).View(func(rel *storage.Relation) error {
				rows = append(rows, float64(rel.Rows))
				total += float64(rel.Rows)
				return nil
			})
		}
		sort.Float64s(rows)
		set("shard.row_skew", ratio(rows[len(rows)-1], total/float64(len(rows))))
	} else if eng, err := t.e.db.Engine(main); err == nil {
		cs, ts, window = eng.Stats(), eng.TierStats(), eng.WindowSize()
		set("shard.row_skew", 0)
	}
	set("core.adaptations", float64(cs.Adaptations))
	set("core.reorgs", float64(cs.Reorgs))
	set("core.groups_created", float64(cs.GroupsCreated))
	set("core.groups_dropped", float64(cs.GroupsDropped))
	set("core.segments_reorganized", float64(reorgSegs))
	set("core.reorg_ms_total", float64(reorgNS)/1e6)
	set("affinity.window_size_final", float64(window))
	set("opgen.cache_hit_ratio", ratio(float64(cs.OpCacheHits), float64(cs.OpCacheHits+cs.OpCacheMisses)))
	set("opgen.compile_ms_total", float64(compileNS)/1e6)

	best := 0
	for _, r := range t.regret {
		if r <= 0.05 { // within timer noise of the fastest strategy
			best++
		}
	}
	set("costmodel.best_choice_ratio", ratio(float64(best), float64(len(t.regret))))
	set("costmodel.regret_p50", median(t.regret))
	set("costmodel.est_over_measured_p50", median(t.estRatio))
	rep.Samples["costmodel.regret_p50"] = len(t.regret)

	const mib = 1 << 20
	set("storage.resident_mb", float64(ts.ResidentBytes)/mib)
	set("storage.encoded_mb", float64(ts.EncodedBytes)/mib)
	set("storage.spilled_mb", float64(ts.SpilledBytes)/mib)
	set("storage.demotions", float64(ts.Demotions))
	set("storage.evictions", float64(ts.Evictions))
	set("persist.spill_writes", float64(ts.SpillWrites))
	set("persist.spill_file_mb", float64(ts.SpillFileBytes)/mib)
	set("persist.faulted_mb", float64(ts.FaultedBytes-t.replayFaults.FaultedBytes)/mib)

	p50("shard.exec_us_p50", spanDurs(spans, "shard.exec"))
	p50("shard.delta_us_p50", spanDurs(spans, "shard.delta"))
	p50("shard.fingerprint_us_p50", spanDurs(spans, "shard.fingerprint"))
	p50("shard.gather_self_us_p50", t.gatherSelf)

	set("trace.select_p50_ratio", ratio(quantileOf(t.lat, 0.5), quantileNS(ref.latencies(), 0.5)))
	set("trace.spans", float64(len(spans)))
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
