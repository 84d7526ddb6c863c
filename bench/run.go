package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"h2o"
	"h2o/internal/exec"
)

// runConfig is what one invocation fixes for every workload it runs.
type runConfig struct {
	seed    int64
	seconds float64
	scale   float64
	workdir string // spill files and scratch stores live under it
	setups  int    // set-ups per timed run; setup_s is their median
}

// env is one built catalog plus the benchmark's own view of it.
type env struct {
	w        *workloadSpec
	cfg      runConfig
	tables   map[string]*h2o.Table // generated data: the oracle's shadow copy
	stream   *streamCtx
	db       *h2o.DB
	tmp      string
	baseHeap uint64 // live heap just before the catalog was built
}

// sut is the path a statement takes into the system under test: the facade
// for timed runs, the benchmark's span-recording transcription of it for
// traced ones.
type sut interface {
	query(ctx context.Context, sql string) (*h2o.Result, h2o.ExecInfo, error)
}

type facade struct{ db *h2o.DB }

func (f facade) query(ctx context.Context, sql string) (*h2o.Result, h2o.ExecInfo, error) {
	return f.db.QueryCtx(ctx, sql)
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// build generates the workload's tables and loads them into a fresh catalog.
func build(w *workloadSpec, cfg runConfig) (*env, error) {
	e := &env{w: w, cfg: cfg, tables: make(map[string]*h2o.Table)}
	for _, name := range w.tables {
		e.tables[name] = genTable(name, cfg.seed, cfg.scale)
	}
	e.stream = newStreamCtx(w, cfg.seed, cfg.scale, e.tables[w.tables[0]].Rows)
	tmp, err := os.MkdirTemp(cfg.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	e.tmp = tmp
	e.baseHeap = liveHeap()

	opts := h2o.DefaultOptions()
	if w.options != nil {
		w.options(&opts, tmp)
	}
	if cfg.scale < 1 {
		// Smoke runs keep the full-scale shape: as many segments, and a
		// budget that is the same share of the flat size.
		opts.SegmentCapacity = segCapFor(cfg.scale)
		opts.MemoryBudgetBytes = int64(float64(opts.MemoryBudgetBytes) * cfg.scale)
	}
	e.db = h2o.NewDBWith(opts)
	for _, name := range w.tables {
		e.db.AddTable(e.tables[name])
	}
	return e, nil
}

// warm runs the untimed part every workload but adapt_seq has: one pass over
// each statement pool so caches start full, and — under a memory budget — a
// settling pass so the run starts from the residency state it will hold.
// adapt_seq gets none: adaptation cost is what its users pay, so it is timed.
func (e *env) warm(ctx context.Context, s sut) error {
	for _, p := range e.stream.pooled() {
		if _, _, err := s.query(ctx, p.sql); err != nil {
			return fmt.Errorf("warm-up %q: %w", p.sql, err)
		}
	}
	if e.w.name == "cold_tier" {
		eng, err := e.db.Engine(e.w.tables[0])
		if err != nil {
			return err
		}
		eng.EnforceBudget()
		r := newRNG(e.cfg.seed, 0x3a43)
		for i := 0; i < 16; i++ {
			st := e.stream.eventsAgg(i, false, e.stream.window(&r, true, 0.1, 1.0))
			if _, _, err := s.query(ctx, st.SQL()); err != nil {
				return fmt.Errorf("warm-up %q: %w", st.SQL(), err)
			}
		}
	}
	return nil
}

func (e *env) close() {
	e.db.Close()
	os.RemoveAll(e.tmp)
}

// opClass is what the serving layer did with a select, read off its ExecInfo.
type opClass uint8

const (
	classHit opClass = iota
	classRepair
	classMiss
	classJoin
	numClasses
)

var classNames = [numClasses]string{"hit", "repair", "miss", "join"}

func classify(info h2o.ExecInfo) opClass {
	switch {
	case info.CacheHit:
		return classHit
	case info.RepairedSegments > 0:
		return classRepair
	case info.Strategy == exec.StrategyJoin:
		return classJoin
	}
	return classMiss
}

type sample struct {
	ns    int64
	class opClass
}

// clientLog is what one client goroutine records; nothing in it is shared.
type clientLog struct {
	selects  []sample
	inserts  []int64
	inserted []int64 // tuples this client inserted, row-major
	ops      int
	errs     int
	firstErr error
	faults   [numOpKinds]int // segments faulted, by op kind
	byKind   [numOpKinds]int
}

// drive is one closed-loop client: it issues the next statement as soon as
// the previous reply arrives, until the deadline or maxOps.
func drive(ctx context.Context, s sut, next func() op, deadline time.Time, maxOps int, log *clientLog) {
	for (maxOps <= 0 || log.ops < maxOps) && (deadline.IsZero() || time.Now().Before(deadline)) {
		o := next()
		t0 := time.Now()
		_, info, err := s.query(ctx, o.sql)
		dt := time.Since(t0).Nanoseconds()
		log.ops++
		log.byKind[o.kind]++
		if err != nil {
			log.errs++
			if log.firstErr == nil {
				log.firstErr = fmt.Errorf("%s: %w", o.sql[:min(len(o.sql), 120)], err)
			}
			continue
		}
		if o.kind == opInsert {
			log.inserts = append(log.inserts, dt)
			log.inserted = append(log.inserted, o.rows...)
			continue
		}
		log.selects = append(log.selects, sample{dt, classify(info)})
		log.faults[o.kind] += info.SegmentsFaulted
	}
}

// runLog is the merged record of one run: the clients' logs folded into
// one, selects and inserts sorted by latency.
type runLog struct {
	clientLog
	wall     time.Duration
	ownBytes uint64 // heap the benchmark's own logs hold
}

// absorb folds one client's log in and adds its tuples to the shadow copy.
func (rl *runLog) absorb(l *clientLog, o *oracle, table string) {
	rl.selects = append(rl.selects, l.selects...)
	rl.inserts = append(rl.inserts, l.inserts...)
	rl.ops += l.ops
	rl.errs += l.errs
	if rl.firstErr == nil {
		rl.firstErr = l.firstErr
	}
	for k := range l.faults {
		rl.faults[k] += l.faults[k]
		rl.byKind[k] += l.byKind[k]
	}
	rl.ownBytes += uint64(cap(l.selects))*16 + uint64(cap(l.inserts)+cap(l.inserted))*8
	o.appendRows(table, l.inserted)
	sort.Slice(rl.selects, func(i, j int) bool { return rl.selects[i].ns < rl.selects[j].ns })
	sort.Slice(rl.inserts, func(i, j int) bool { return rl.inserts[i] < rl.inserts[j] })
}

// latencies returns the select latencies, sorted.
func (rl *runLog) latencies() []int64 {
	lat := make([]int64, len(rl.selects))
	for i, s := range rl.selects {
		lat[i] = s.ns
	}
	return lat
}

// runClients runs the workload's clients to the deadline (or maxOps each)
// and folds their logs; inserted tuples go to the oracle's shadow copy.
func (e *env) runClients(ctx context.Context, s sut, clients int, seconds float64, maxOps int, o *oracle) *runLog {
	logs := make([]*clientLog, clients)
	var deadline time.Time
	start := time.Now()
	if seconds > 0 {
		deadline = start.Add(time.Duration(seconds * float64(time.Second)))
	}
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			drive(ctx, s, newOpStream(e.stream, c).next, deadline, maxOps, logs[c])
		}(c)
	}
	wg.Wait()
	rl := &runLog{wall: time.Since(start)}
	for _, l := range logs {
		rl.absorb(l, o, e.w.tables[0])
	}
	rl.ownBytes += uint64(cap(rl.selects))*16 + uint64(cap(rl.inserts))*8
	return rl
}

// rank is the index of the p-quantile in n sorted samples.
func rank(n int, p float64) int {
	i := int(float64(n)*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func quantileNS(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[rank(len(sorted), p)])
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload, timed or traced. Its
// first four fields are the driver's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples counts the observations behind each percentile metric.
	Samples map[string]int `json:"-"`
	// Counts are the op counts by kind; Notes the self-check findings and
	// the op classes sitting at p50 and p95.
	Counts map[string]int `json:"-"`
	Notes  []string       `json:"-"`
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}, Samples: map[string]int{}, Counts: map[string]int{}}
}

func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{v, d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, "FAIL: "+fmt.Sprintf(format, args...))
}

// timedRun is the --trace 0 measurement of one workload: cfg.setups
// set-ups (the last one is kept), the closed-loop run through DB.QueryCtx,
// the workload's self-checks and the oracle gate at quiescence.
func timedRun(ctx context.Context, w *workloadSpec, cfg runConfig) (*report, error) {
	rep := newReport()
	var e *env
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		// Every set-up starts from a collected heap, so the later ones reuse
		// the first one's pages alike instead of racing the collector.
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = build(w, cfg); err != nil {
			return nil, err
		}
		if w.phaseOps == 0 {
			if err := e.warm(ctx, facade{e.db}); err != nil {
				e.close()
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	orc := newOracle(e.tables)
	before := e.db.ServeStats()

	// adapt_seq is read-only while timed, yet every workload reports every
	// end-to-end metric: its insert latency comes from a short write phase
	// before the sequence starts, on the load-time layout, where the work
	// per insert is the same on every run.
	pre := &clientLog{}
	if w.readOnly() {
		st := newOpStream(e.stream, w.clients)
		drive(ctx, facade{e.db}, func() op { return st.insert(w.tables[0]) }, time.Time{}, 128, pre)
	}
	rl := e.runClients(ctx, facade{e.db}, w.clients, cfg.seconds, 0, orc)

	rep.set(endToEnd, "setup_s", median(setups))
	rep.set(endToEnd, "ops_per_s", float64(rl.ops)/rl.wall.Seconds())
	lat := rl.latencies()
	rep.set(endToEnd, "select_p50_us", quantileNS(lat, 0.50)/1e3)
	rep.set(endToEnd, "select_p95_us", quantileNS(lat, 0.95)/1e3)
	rep.Samples["select_p50_us"], rep.Samples["select_p95_us"] = len(lat), len(lat)
	if eng, err := e.db.Engine(w.tables[0]); err == nil {
		eng.EnforceBudget() // a no-op without a budget; with one, measure the settled state
	}
	heap := liveHeap()
	rep.set(endToEnd, "mem_live_mb", (float64(heap)-float64(e.baseHeap)-float64(rl.ownBytes))/(1<<20))

	rl.absorb(pre, orc, w.tables[0])
	rep.set(endToEnd, "insert_p50_us", quantileNS(rl.inserts, 0.50)/1e3)
	rep.Samples["insert_p50_us"] = len(rl.inserts)

	for k, n := range rl.byKind {
		if n > 0 {
			rep.Counts[opKindNames[k]] = n
		}
	}
	rep.Attempted, rep.Failed = rl.ops, rl.errs
	if rl.firstErr != nil {
		rep.fail("%d ops failed, first: %v", rl.errs, rl.firstErr)
	}
	e.selfCheck(rep, rl, before)

	// Oracle gate: every pool statement and 32 fresh ones, at quiescence.
	var stmts []*stmt
	for _, p := range e.stream.pooled() {
		stmts = append(stmts, p.st)
	}
	fresh := newOpStream(e.stream, w.clients+1)
	for n := 0; n < 32; {
		if o := fresh.next(); o.kind != opInsert && o.kind != opRepeat && o.kind != opJoin {
			stmts = append(stmts, o.st)
			n++
		}
	}
	bad := orc.check(ctx, e.db, stmts)
	rep.Attempted += len(stmts)
	rep.Failed += len(bad)
	rep.Counts["oracle_checked"] = len(stmts)
	for i, b := range bad {
		if i < 5 {
			rep.fail("oracle mismatch: %s", b)
		}
	}
	if len(bad) > 5 {
		rep.fail("... and %d more oracle mismatches", len(bad)-5)
	}
	return rep, nil
}

// selfCheck fails the run when the workload has stopped doing what its
// sentence in BENCHMARK.json says, and notes which op class sits at the
// reported percentiles.
func (e *env) selfCheck(rep *report, rl *runLog, before h2o.ServerStats) {
	st := e.db.ServeStats()
	selects := float64(st.Submitted - before.Submitted)
	if selects == 0 {
		rep.fail("no selects completed")
		return
	}
	hit := float64(st.CacheHits-before.CacheHits) / selects
	repair := float64(st.Repaired-before.Repaired) / selects
	var classAt [2]string
	for i, p := range []float64{0.50, 0.95} {
		classAt[i] = classNames[rl.selects[rank(len(rl.selects), p)].class]
	}
	faults := 0
	for _, f := range rl.faults {
		faults += f
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"selects=%d inserts=%d hit_ratio=%.3f repair_ratio=%.3f class@p50=%s class@p95=%s faults=%d wall=%.2fs",
		len(rl.selects), len(rl.inserts), hit, repair, classAt[0], classAt[1], faults, rl.wall.Seconds()))

	if e.cfg.scale < 1 {
		return // the thresholds below are calibrated for full-size tables
	}
	switch e.w.name {
	case "adapt_seq":
		if hit != 0 {
			rep.fail("adapt_seq: hit ratio %.4f, want 0 (every constant is fresh)", hit)
		}
		if eng, err := e.db.Engine("wide"); err != nil || eng.Stats().Reorgs < 1 {
			rep.fail("adapt_seq: no reorganization happened (%v)", err)
		}
	case "serve_hot":
		if hit < 0.6 {
			rep.fail("serve_hot: hit ratio %.3f < 0.6", hit)
		}
		if classAt[0] != "hit" {
			rep.fail("serve_hot: op class at p50 is %q, want hit", classAt[0])
		}
	case "serve_churn", "shard_churn":
		if repair < 0.4 {
			rep.fail("%s: repair ratio %.3f < 0.4", e.w.name, repair)
		}
	case "cold_tier":
		ts, _ := e.db.TierStats("events")
		if faults == 0 || ts.SpillWrites == 0 {
			rep.fail("cold_tier: faults=%d spill_writes=%d, want both > 0", faults, ts.SpillWrites)
		}
		if f := rl.faults[opRecent]; f != 0 {
			rep.fail("cold_tier: recent-window selects faulted %d segments, want 0", f)
		}
	}
	if e.w.name != "cold_tier" && faults != 0 {
		rep.fail("%s fits in memory but faulted %d segments", e.w.name, faults)
	}
}
