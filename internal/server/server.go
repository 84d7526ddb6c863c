package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"h2o/internal/core"
	"h2o/internal/exec"
	"h2o/internal/query"
)

// ErrClosed is returned for queries submitted to (or in flight on) a server
// that has been shut down.
var ErrClosed = errors.New("server: closed")

// Backend is the serving layer's view of a catalog of tables: it executes
// logical queries, fingerprints them, delta-scans repairable ones and
// reports relation versions. The h2o.DB facade implements it for a
// catalog, TableBackend for a single core.Table, and tests with stubs.
type Backend interface {
	// Exec runs one logical query to completion. The returned
	// ExecInfo.Fingerprint must describe the relation state the result was
	// computed against (the engine fills it in under the lock the
	// execution held); a zero fingerprint marks the result uncacheable.
	Exec(q *query.Query) (*exec.Result, core.ExecInfo, error)
	// Fingerprint computes q's candidate-touch fingerprint against the
	// table's current state: the set of segments q may read — zone-map
	// pruning only, no data access — and their versions. It must be cheap
	// (O(segments), no I/O) and safe to call concurrently with Exec.
	Fingerprint(q *query.Query) (core.TouchFingerprint, error)
	// ExecDelta is the delta-repair tier: it rescans the candidate
	// segments of a repairable query whose versions differ from have (nil
	// = all of them), under the same lock as the returned fingerprint.
	// have must be prior.Versions() of the payload later passed to
	// exec.Repaired, which folds any suffix partials into it. ok=false
	// tells the server to fall back to Exec — the query is not
	// repairable, or the backend's adaptive machinery needs the full path
	// this round.
	ExecDelta(q *query.Query, have map[int]uint64) (*core.DeltaScan, bool, error)
	// Version is a cheap (atomic-read) per-table relation version that
	// bumps on every mutation and is never reused. Admission memoizes
	// fingerprints under it, so hot query patterns skip the
	// O(segments × predicate terms) zone-map walk while it is unchanged.
	Version(table string) (uint64, error)
}

// TableBackend serves one table — a single engine or a shard router —
// under Name, for deployments that put a Server directly over it (the
// h2o.DB facade serves a whole catalog instead). Queries and versions for
// any other table name fail.
type TableBackend struct {
	Name string
	T    core.Table
}

var _ Backend = TableBackend{}

func (b TableBackend) Exec(q *query.Query) (*exec.Result, core.ExecInfo, error) {
	if err := b.check(q.Tables()...); err != nil {
		return nil, core.ExecInfo{}, err
	}
	return b.T.Execute(q)
}

func (b TableBackend) Fingerprint(q *query.Query) (core.TouchFingerprint, error) {
	if err := b.check(q.Tables()...); err != nil {
		return core.TouchFingerprint{}, err
	}
	return b.T.QueryFingerprint(q), nil
}

func (b TableBackend) ExecDelta(q *query.Query, have map[int]uint64) (*core.DeltaScan, bool, error) {
	if err := b.check(q.Tables()...); err != nil {
		return nil, false, err
	}
	return b.T.QueryDelta(q, have)
}

func (b TableBackend) Version(table string) (uint64, error) {
	if err := b.check(table); err != nil {
		return 0, err
	}
	return b.T.Version(), nil
}

func (b TableBackend) check(tables ...string) error {
	for _, t := range tables {
		if t != b.Name {
			return fmt.Errorf("server: unknown table %q", t)
		}
	}
	return nil
}

// Config sizes the serving layer. Zero values select defaults.
type Config struct {
	// Workers is the number of goroutines executing queries. Default:
	// GOMAXPROCS. Intra-query parallelism (core.Options.Parallelism)
	// multiplies on top of this, so on dedicated serving hosts keep
	// Workers x Parallelism near the core count.
	Workers int
	// QueueDepth bounds the admission queue. A full queue makes Query block
	// until a slot frees or the caller's context is canceled. Default:
	// 4 x Workers.
	QueueDepth int
	// CacheShards is the number of independent lock domains in the result
	// cache, rounded up to a power of two. Default: 16.
	CacheShards int
	// CacheEntries is the total result-cache capacity in entries. Default:
	// 4096. Negative disables caching entirely.
	CacheEntries int
	// PartialCacheBytes budgets the per-segment partial-aggregate payloads
	// kept alongside cached results for delta repair. Default: 4 MiB.
	// Negative disables partial caching (and with it delta repair); it is
	// also off whenever the result cache is disabled.
	PartialCacheBytes int64
	// MemoEntries bounds the admission fingerprint memo (per (table,
	// normalized query) at a relation version). Default: 4096. Negative
	// disables memoization; it is also off whenever the result cache is
	// disabled.
	MemoEntries int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.PartialCacheBytes == 0 {
		c.PartialCacheBytes = 4 << 20
	}
	if c.MemoEntries == 0 {
		c.MemoEntries = 4096
	}
	return c
}

// Stats are serving-layer lifetime counters, all monotone. Every query
// that enters Query lands in exactly one of the four outcome buckets, so
// at any quiescent point
//
//	Submitted == CacheHits + CacheMisses + Canceled + Errors
//
// (under concurrent load a snapshot may catch queries mid-flight —
// submitted but not yet bucketed — so Submitted can transiently exceed the
// sum, never the reverse).
type Stats struct {
	// Submitted counts queries that entered Query.
	Submitted uint64
	// Executed counts queries a worker ran against the backend.
	Executed uint64
	// CacheHits counts queries answered from the result cache.
	CacheHits uint64
	// CacheMisses counts queries that completed through the execution path
	// — full or delta — instead of the result cache (caching disabled
	// included). Counted at completion, not admission, so a query that is
	// canceled or fails after missing the cache lands in Canceled or
	// Errors, never in two buckets.
	CacheMisses uint64
	// Canceled counts queries abandoned by their context — while queued,
	// while waiting for a worker, or before admission.
	Canceled uint64
	// Errors counts queries that failed: fingerprint or execution errors,
	// and submissions refused by a closed server.
	Errors uint64
	// Uncacheable counts results not published at all: the backend
	// reported no valid execution fingerprint to key them under.
	Uncacheable uint64
	// Republished counts results published under their execution-time
	// fingerprint because a mutation of candidate segments landed between
	// admission and execution. The result is still cached — it is
	// consistent with the state the execution observed — just not under
	// the key admission looked up. Mutations confined to segments the
	// query never reads change neither fingerprint and do not count.
	Republished uint64
	// Repaired counts queries answered by delta repair: at least one
	// cached per-segment partial was reused, so the scan covered only the
	// changed candidate segments instead of the whole candidate set.
	// Repaired queries also count as Executed and CacheMisses.
	Repaired uint64
	// RepairedSegments totals the candidate segments delta repairs
	// rescanned — the changed-segment counts, summed over Repaired
	// queries. Repaired > 0 with a low RepairedSegments/Repaired ratio is
	// the payoff signature: repeat aggregates over a tail-append workload
	// cost O(1 segment) each.
	RepairedSegments uint64
	// MemoHits counts admissions whose fingerprint came from the
	// per-(table, query) memo at an unchanged relation version, skipping
	// the O(segments × predicate terms) zone-map walk.
	MemoHits uint64
}

// job is one admitted query.
type job struct {
	ctx  context.Context
	q    *query.Query
	key  string // admission-time cache key, empty when caching is off
	norm string // normalized query text, rendered once at admission
	done chan outcome

	// pkey routes the job through the delta-repair tier: the
	// partials-cache key (empty when this query cannot repair). The
	// worker reads the payload at execution time, not admission time, so
	// identical queries queued together benefit from the first one's
	// publish instead of each redoing the full partial scan.
	pkey string
}

type outcome struct {
	res  *exec.Result
	info core.ExecInfo
	err  error
}

// Server is the concurrent serving layer: a bounded worker pool with an
// admission queue in front of a Backend, and a versioned result cache.
// All methods are safe for concurrent use.
type Server struct {
	backend Backend
	cfg     Config
	cache   *resultCache // nil when caching is disabled

	// partials enables the repair tier and memo fingerprint memoization;
	// each is nil unless caching is on and its budget is positive.
	partials *partialCache
	memo     *fpMemo

	queue chan *job
	done  chan struct{} // closed by Close
	wg    sync.WaitGroup
	once  sync.Once

	submitted    atomic.Uint64
	executed     atomic.Uint64
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	canceled     atomic.Uint64
	errored      atomic.Uint64
	uncacheable  atomic.Uint64
	republished  atomic.Uint64
	repaired     atomic.Uint64
	repairedSegs atomic.Uint64
	memoHits     atomic.Uint64
}

// New starts a server over backend and returns it running; callers own the
// shutdown via Close.
func New(backend Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		backend: backend,
		cfg:     cfg,
		queue:   make(chan *job, cfg.QueueDepth),
		done:    make(chan struct{}),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheShards, cfg.CacheEntries)
		if cfg.PartialCacheBytes > 0 {
			s.partials = newPartialCache(cfg.PartialCacheBytes)
		}
		if cfg.MemoEntries > 0 {
			s.memo = newFpMemo(cfg.MemoEntries)
		}
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Close stops the workers. Queries already queued or in flight receive
// ErrClosed; Close blocks until every worker has exited. Closing twice is
// safe.
func (s *Server) Close() {
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	return Stats{
		Submitted:        s.submitted.Load(),
		Executed:         s.executed.Load(),
		CacheHits:        s.cacheHits.Load(),
		CacheMisses:      s.cacheMisses.Load(),
		Canceled:         s.canceled.Load(),
		Errors:           s.errored.Load(),
		Uncacheable:      s.uncacheable.Load(),
		Republished:      s.republished.Load(),
		Repaired:         s.repaired.Load(),
		RepairedSegments: s.repairedSegs.Load(),
		MemoHits:         s.memoHits.Load(),
	}
}

// CacheSize returns the number of live result-cache entries (0 when caching
// is disabled). Stale-version entries count until the LRU recycles them.
func (s *Server) CacheSize() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.size()
}

// SegmentHeat returns nil.
//
// Deprecated: cache heat is gone; kept until the benchmark stops calling it (ROADMAP D2 + P).
func (s *Server) SegmentHeat(string) map[int]int { return nil }

// Query serves one logical query: answered from the result cache when an
// entry exists for the query's current touch fingerprint — every segment
// the query may read is unchanged — otherwise admitted to the worker pool
// and executed. It blocks until the result is ready, ctx is canceled, or
// the server closes. A cache hit sets ExecInfo.CacheHit, reports the hit's own
// (sub-millisecond) latency in ExecInfo.Duration, and costs no queue slot.
//
// Results may be shared: a cached *exec.Result is handed to every client
// that hits it. Treat returned results as read-only — mutating Data or Rows
// in place would corrupt what other clients see.
func (s *Server) Query(ctx context.Context, q *query.Query) (*exec.Result, core.ExecInfo, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	s.submitted.Add(1)
	if err := ctx.Err(); err != nil {
		s.canceled.Add(1)
		return nil, core.ExecInfo{}, err
	}
	// A closed server refuses all queries, cache hits included: Close is a
	// fence — nothing answers after it.
	select {
	case <-s.done:
		s.errored.Add(1)
		return nil, core.ExecInfo{}, ErrClosed
	default:
	}

	var key, norm, pkey string
	if s.cache != nil {
		// Admission tier 1 — exact hit. Fingerprint the candidate touch set
		// — the segments q may read per zone-map pruning, with their
		// versions — and look the cache up under it. A cached entry is
		// addressable exactly while every segment that could contribute to
		// the result is unchanged; mutations confined to other segments (a
		// tail append behind a selective predicate, a reorg of segments
		// this query never reads) leave the entry live.
		norm = q.String()
		// The (table, normalized query) composite addresses both the
		// fingerprint memo and the partials cache; build it once.
		tqKey := partialKey(q.Table, norm)
		fp, err := s.fingerprint(q, tqKey)
		if err != nil {
			s.errored.Add(1)
			return nil, core.ExecInfo{}, err
		}
		key = cacheKey(q.Table, norm, fp)
		if res, info, ok := s.cache.get(key); ok {
			s.cacheHits.Add(1)
			info.CacheHit = true
			// Report the hit's latency, not the original execution's scan
			// time, so per-query latency accounting reflects what the
			// caller actually waited; likewise a hit rescanned nothing,
			// even when the stored entry was published by a repair.
			info.Duration = time.Since(start)
			info.RepairedSegments = 0
			return res, info, nil
		}
		// Admission tier 2 — delta repair. The exact entry is gone (a
		// candidate segment mutated, or the LRU recycled it), but for
		// repairable aggregate queries the partials payload cached under
		// the fingerprint-less (table, query) key may still hold exact
		// per-segment contributions; the worker will rescan only the
		// segments whose versions moved (or seed the payload with a full
		// partial scan when there is none). A repairable join's key names
		// both tables (the normalized query carries its join clause) and
		// its payload holds per-probe-segment partials. Tier 3 — the full
		// Exec path — is what everything else takes.
		if s.partials != nil && (exec.Repairable(q) || exec.JoinRepairable(q)) {
			pkey = tqKey
		}
	}

	j := &job{ctx: ctx, q: q, key: key, norm: norm, done: make(chan outcome, 1), pkey: pkey}

	// Admission: block for a queue slot, but never past cancellation or
	// shutdown.
	select {
	case s.queue <- j:
	case <-ctx.Done():
		s.canceled.Add(1)
		return nil, core.ExecInfo{}, ctx.Err()
	case <-s.done:
		s.errored.Add(1)
		return nil, core.ExecInfo{}, ErrClosed
	}

	// Wait for a worker. The done channel is buffered, so a worker finishing
	// after the client gave up does not block.
	select {
	case out := <-j.done:
		// Completion-time bucketing: success means the query went through
		// the execution path (a cache miss, or caching is off); a worker
		// observing the client's cancellation counts as canceled exactly
		// like the select arm below.
		switch {
		case out.err == nil:
			s.cacheMisses.Add(1)
		case errors.Is(out.err, context.Canceled), errors.Is(out.err, context.DeadlineExceeded):
			s.canceled.Add(1)
		default:
			s.errored.Add(1)
		}
		return out.res, out.info, out.err
	case <-ctx.Done():
		s.canceled.Add(1)
		return nil, core.ExecInfo{}, ctx.Err()
	case <-s.done:
		s.errored.Add(1)
		return nil, core.ExecInfo{}, ErrClosed
	}
}

// worker drains the admission queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.serve(j)
		case <-s.done:
			return
		}
	}
}

// fingerprint computes q's admission fingerprint, memoized under the
// caller's (table, normalized query) composite key at the backend's
// relation version. The version is read
// *before* the walk it guards: see fpMemo for why that order is what makes
// a racing mutation harmless. A join query's memo version is the sum of
// every input table's version — versions are monotone, so any mutation of
// any input strictly changes the sum and the memoized pair fingerprint is
// never served stale.
func (s *Server) fingerprint(q *query.Query, tqKey string) (core.TouchFingerprint, error) {
	if s.memo == nil {
		return s.backend.Fingerprint(q)
	}
	var ver uint64
	for _, table := range q.Tables() {
		v, err := s.backend.Version(table)
		if err != nil {
			return core.TouchFingerprint{}, err
		}
		ver += v
	}
	if fp, ok := s.memo.get(tqKey, ver); ok {
		s.memoHits.Add(1)
		return fp, nil
	}
	fp, err := s.backend.Fingerprint(q)
	if err != nil {
		return core.TouchFingerprint{}, err
	}
	s.memo.put(tqKey, ver, fp)
	return fp, nil
}

// serve executes one admitted job and publishes the result.
func (s *Server) serve(j *job) {
	// The client may have left while the job sat in the queue; skip the scan.
	if err := j.ctx.Err(); err != nil {
		j.done <- outcome{err: err}
		return
	}
	if j.pkey != "" {
		if done := s.serveDelta(j); done {
			return
		}
		// The backend declined the delta path this round (adaptation due,
		// shape it cannot scan incrementally): fall through to full Exec.
	}
	res, info, err := s.backend.Exec(j.q)
	s.executed.Add(1)
	if err == nil && s.cache != nil && j.key != "" {
		s.publish(j, res, info)
	}
	j.done <- outcome{res: res, info: info, err: err}
}

// publish caches one execution's result under the fingerprint the
// execution observed (computed by the engine under the lock the scan
// held), not blindly under the admission-time key: if a mutation of
// candidate segments landed between admission and execution, the admission
// key now names a state that no longer exists, while the execution key
// names exactly the state the result was read from — later identical
// queries admit against that state and hit. This is the vector-comparison
// generalization of the old whole-relation version re-check: a bump
// confined to segments the query never reads changes neither fingerprint,
// so the keys coincide and the result publishes normally instead of being
// discarded. Shared by the full and delta paths so the republish and
// uncacheable accounting can never drift between them.
func (s *Server) publish(j *job, res *exec.Result, info core.ExecInfo) {
	if fp := info.Fingerprint; fp.Valid() {
		pubKey := cacheKey(j.q.Table, j.norm, fp)
		s.cache.put(pubKey, res, info)
		if pubKey != j.key {
			s.republished.Add(1)
		}
	} else {
		// No fingerprint, no safe key: the backend could not tie the
		// result to a relation state.
		s.uncacheable.Add(1)
	}
}

// serveDelta answers one repairable job through the backend's delta scan:
// rescan only the candidate segments whose versions differ from the cached
// partials (all of them when there is no payload — the cold seed), combine
// with the retained partials, and publish both the result (under the
// fingerprint the scan observed, with the same republish accounting as the
// full path) and the refreshed payload. The payload is read here, at
// execution time: identical queries that queued up behind a cold seed find
// the first worker's publish and shrink to the changed set. Returns false
// when the backend declined, telling the caller to run the full Exec path
// instead.
func (s *Server) serveDelta(j *job) bool {
	start := time.Now()
	prior := s.partials.get(j.pkey)
	var have map[int]uint64
	if prior != nil {
		have = prior.Versions()
	}
	ds, ok, err := s.backend.ExecDelta(j.q, have)
	if err != nil {
		s.executed.Add(1)
		j.done <- outcome{err: err}
		return true
	}
	if !ok {
		return false
	}
	s.executed.Add(1)
	merged := exec.Repaired(prior, ds.Fresh, ds.Reused)
	res := merged.Result()
	info := core.ExecInfo{
		Strategy:        exec.StrategyDelta,
		Layout:          ds.Layout,
		Fingerprint:     ds.Fingerprint,
		SegmentsScanned: ds.Stats.SegmentsScanned,
		SegmentsPruned:  ds.Stats.SegmentsPruned,
		SegmentsFaulted: ds.Stats.SegmentsFaulted,
		SegmentsTouched: ds.Stats.Touched,
		DecodeSkips:     ds.Stats.DecodeSkips,
		EncodedBytes:    ds.Stats.EncodedBytes,
		Duration:        time.Since(start),
	}
	// A repair proper reused at least one cached partial or extended one by
	// a suffix; a cold seed (or a payload whose every candidate was
	// rescanned whole) is a full partial scan and counts as neither
	// repaired nor rescued work.
	if len(ds.Reused) > 0 || extendsCached(ds.Fresh) {
		info.RepairedSegments = len(ds.Fresh.Segs)
		s.repaired.Add(1)
		s.repairedSegs.Add(uint64(len(ds.Fresh.Segs)))
	}
	s.publish(j, res, info)
	if ds.Fingerprint.Valid() {
		s.partials.put(j.pkey, merged)
	}
	j.done <- outcome{res: res, info: info}
	return true
}

// extendsCached reports whether any fresh partial extends a cached one: a
// suffix of a segment that only grew, or a re-stamp after a
// reorganization-only bump.
func extendsCached(fresh *exec.PartialResult) bool {
	for _, sp := range fresh.Segs {
		if sp.Base != 0 {
			return true
		}
	}
	return false
}
