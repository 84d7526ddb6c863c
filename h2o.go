// Package h2o is a from-scratch Go reproduction of "H2O: A Hands-free
// Adaptive Store" (Alagiannis, Idreos, Ailamaki — SIGMOD 2014): an
// in-memory analytical engine that makes no fixed storage-layout decision.
// It supports row-major, column-major and column-group layouts
// simultaneously, monitors the query stream through attribute affinity
// matrices over a dynamic window, proposes new vertical partitions with a
// cost model that prices the transformation, creates them lazily — fused
// into the first query that benefits — and answers each query with the
// specialized scan kernel of the cheapest (layout, strategy) combination.
//
// This root package is the public facade: it wires together the internal
// packages (storage, exec, advisor, affinity, costmodel, core) into
// the small API a downstream user needs. See the examples/ directory for
// runnable walkthroughs and cmd/h2obench for the harness that regenerates
// every table and figure of the paper's evaluation.
//
// Basic usage:
//
//	schema := h2o.NewSchema("events", []string{"ts", "src", "dst", "bytes"})
//	db := h2o.NewDB()
//	db.CreateTableFrom(schema, rows, seed)      // synthetic data
//	res, info, err := db.Query("select max(bytes) from events where src < 100")
//
// For many simultaneous clients, route queries through the serving layer —
// a bounded worker pool with a versioned result cache (see internal/server):
//
//	res, info, err := db.QueryCtx(ctx, "select max(bytes) from events")
//	// or, with explicit sizing and lifecycle:
//	srv := db.Serve(h2o.ServerConfig{Workers: 8})
//	defer srv.Close()
package h2o

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/persist"
	"h2o/internal/query"
	"h2o/internal/server"
	"h2o/internal/shard"
	"h2o/internal/sql"
	"h2o/internal/storage"
)

// Re-exported building blocks for programmatic (non-SQL) use.
type (
	// Schema describes a relation's attributes.
	Schema = data.Schema
	// Table is generated columnar source data.
	Table = data.Table
	// Result is a materialized query result.
	Result = exec.Result
	// ExecInfo reports how a query was executed (strategy, layout,
	// reorganization, timing).
	ExecInfo = core.ExecInfo
	// Engine is a single-relation H2O instance.
	Engine = core.Engine
	// Options configures an Engine.
	Options = core.Options
	// Stats are engine-lifetime counters.
	Stats = core.Stats
	// Query is the logical select-project-aggregate representation.
	Query = query.Query
	// Server is the concurrent serving layer: a bounded worker pool with a
	// versioned result cache in front of the engines.
	Server = server.Server
	// ServerConfig sizes a Server (workers, queue depth, cache shards and
	// capacity); the zero value selects defaults.
	ServerConfig = server.Config
	// ServerStats are serving-layer counters (cache hits, executions,
	// cancellations).
	ServerStats = server.Stats
	// TouchFingerprint identifies the segments a query may read (per
	// zone-map pruning) and their versions; the serving layer keys its
	// result cache on it, so mutations confined to segments a query never
	// reads leave its cached results live.
	TouchFingerprint = core.TouchFingerprint
	// DeltaScan is the product of one delta-repair scan: fresh partials
	// for the changed candidate segments, the indices whose cached
	// partials remain exact, and the fingerprint of the observed state.
	DeltaScan = core.DeltaScan
	// TierStats are tiered-storage counters for one table: resident,
	// encoded and spilled segments and bytes, page-ins (with the file
	// bytes they covered), demotions, evictions, spill writes and on-disk
	// spill-file bytes. All zero unless Options.MemoryBudgetBytes is set;
	// the encoded-rung fields additionally need Options.EncodedTier.
	TierStats = core.TierStats
)

// Execution modes for Options.Mode.
const (
	// ModeAdaptive is full H2O: monitoring, adaptation, lazy reorganization
	// and cost-based strategy choice.
	ModeAdaptive = core.ModeAdaptive
	// ModeStaticRow pins the row layout and strategy.
	ModeStaticRow = core.ModeStaticRow
	// ModeStaticColumn pins the column layout and strategy.
	ModeStaticColumn = core.ModeStaticColumn
	// ModeFrozen keeps the current layout but disables adaptation; strategy
	// choice stays cost-based.
	ModeFrozen = core.ModeFrozen
)

// NewSchema builds a schema; attribute names must be unique.
func NewSchema(name string, attrs []string) (*Schema, error) {
	return data.NewSchema(name, attrs)
}

// SyntheticSchema builds a schema with n attributes named a0..a{n-1}.
func SyntheticSchema(name string, n int) *Schema {
	return data.SyntheticSchema(name, n)
}

// Generate builds synthetic integer data for schema (uniform in [-1e9,1e9)),
// deterministically from seed.
func Generate(schema *Schema, rows int, seed int64) *Table {
	return data.Generate(schema, rows, seed)
}

// GenerateTimeSeries builds synthetic data whose attribute 0 is a
// monotonically increasing "timestamp" (value == row position) while the
// rest are uniform as in Generate. Append-ordered data like this is the
// regime where zone-map pruning — and therefore segment-precise result
// caching — pays off: range predicates on attribute 0 touch only a
// contiguous run of segments.
func GenerateTimeSeries(schema *Schema, rows int, seed int64) *Table {
	return data.GenerateTimeSeries(schema, rows, seed)
}

// DefaultOptions returns the paper's adaptive configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// DB is a catalog of H2O tables, each a core.Table: a single engine, or —
// when Options.Shards > 1 — a scatter-gather router over per-shard engines
// (internal/shard). It implements server.Backend over the catalog. All
// methods are safe for concurrent use: the catalog itself is guarded by a
// read-write mutex, and each engine serializes its own mutations while
// letting read-only queries run in parallel (see core.Engine).
type DB struct {
	mu      sync.RWMutex
	tables  map[string]core.Table
	schemas sql.SchemaMap
	opts    Options

	// srvMu guards the lazily started default serving layer behind
	// QueryCtx: creation, Close and stats all synchronize on it, so a
	// Close racing the first QueryCtx can never miss a just-created
	// server.
	srvMu     sync.Mutex
	srv       *server.Server
	srvClosed bool

	// heatSrv is the serving layer whose cache-reference counts steer
	// tiered-storage eviction (cache-aware eviction): the most recently
	// built server over this catalog. Guarded by mu so AddTable can wire
	// engines it creates later against the same server.
	heatSrv *server.Server
}

var _ server.Backend = (*DB)(nil)

// ErrClosed is returned by QueryCtx after Close has shut the database's
// default serving layer down.
var ErrClosed = server.ErrClosed

// NewDB creates an empty database with default adaptive options.
func NewDB() *DB { return NewDBWith(core.DefaultOptions()) }

// NewDBWith creates an empty database; every table created afterwards uses
// opts.
func NewDBWith(opts Options) *DB {
	return &DB{
		tables:  make(map[string]core.Table),
		schemas: make(sql.SchemaMap),
		opts:    opts,
	}
}

// CreateTableFrom registers a table with synthetic data (rows tuples, seeded
// deterministically), stored column-major initially — the paper's preferred
// starting layout.
func (db *DB) CreateTableFrom(schema *Schema, rows int, seed int64) *Table {
	t := data.Generate(schema, rows, seed)
	db.AddTable(t)
	return t
}

// AddTable registers an existing generated table — behind one engine, or
// split across Options.Shards engines behind a scatter-gather router. A
// table replaced under the same name has its engine(s) closed (spill files
// released); the result cache needs no flushing because relation versions
// are process-unique. Callers still holding the replaced *Engine must not
// keep using it: on a budgeted table its spilled segments are gone, so
// stale-engine queries can fail — re-fetch through db.Engine
// (db.Query/QueryCtx always do).
func (db *DB) AddTable(t *Table) {
	var h core.Table
	if db.opts.Shards > 1 {
		h = shard.New(t, db.opts)
	} else {
		h = core.New(storage.BuildColumnMajorSeg(t, db.opts.SegmentCapacity), db.opts)
	}
	db.register(t.Schema.Name, t.Schema, h)
}

// register installs a built table handle in the catalog, wires it to the
// current heat server, and closes any handle it replaces.
func (db *DB) register(name string, schema *Schema, h core.Table) {
	db.mu.Lock()
	old := db.tables[name]
	db.tables[name] = h
	db.schemas[name] = schema
	heatSrv := db.heatSrv
	db.mu.Unlock()
	if heatSrv != nil {
		wireSegmentHeat(h, heatSrv, name)
	}
	if old != nil {
		old.Close()
	}
}

// handle returns the table handle behind a registered name.
func (db *DB) handle(table string) (core.Table, error) {
	db.mu.RLock()
	h, ok := db.tables[table]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("h2o: unknown table %q", table)
	}
	return h, nil
}

// Engine returns the engine behind a table, for inspection. A sharded
// table (Options.Shards > 1) has no single engine and returns an error;
// use Router for per-shard access.
func (db *DB) Engine(table string) (*Engine, error) {
	h, err := db.handle(table)
	if err != nil {
		return nil, err
	}
	e, ok := h.(*core.Engine)
	if !ok {
		return nil, fmt.Errorf("h2o: table %q is sharded (Options.Shards > 1); it has no single engine", table)
	}
	return e, nil
}

// Router returns the scatter-gather router behind a sharded table, for
// inspection. Unsharded tables return an error; use Engine for those.
func (db *DB) Router(table string) (*shard.Router, error) {
	h, err := db.handle(table)
	if err != nil {
		return nil, err
	}
	r, ok := h.(*shard.Router)
	if !ok {
		return nil, fmt.Errorf("h2o: table %q is not sharded", table)
	}
	return r, nil
}

// Version returns a table's relation version: a counter that advances on
// every insert and layout reorganization in any segment. Coarse
// observability — the serving layer keys its result cache on the
// segment-precise Fingerprint instead.
func (db *DB) Version(table string) (uint64, error) {
	h, err := db.handle(table)
	if err != nil {
		return 0, err
	}
	return h.Version(), nil
}

// SegmentVersions returns a table's per-segment version vector: one entry
// per storage segment, each advancing only when *that* segment mutates
// (tail appends, segment-local reorganization). Residency changes (tiered
// storage spills and faults) never advance any of them.
func (db *DB) SegmentVersions(table string) ([]uint64, error) {
	h, err := db.handle(table)
	if err != nil {
		return nil, err
	}
	return h.SegmentVersions(), nil
}

// Fingerprint computes a query's candidate-touch fingerprint: the digest of
// the segments the query may read (per zone-map pruning, no data access)
// and their versions. The serving layer calls it at admission to address
// its result cache.
func (db *DB) Fingerprint(q *Query) (TouchFingerprint, error) {
	if len(q.Joins) > 0 {
		return db.joinFingerprint(q)
	}
	h, err := db.handle(q.Table)
	if err != nil {
		return TouchFingerprint{}, err
	}
	return h.QueryFingerprint(q), nil
}

// joinFingerprint is the admission fingerprint of a join query: the
// order-sensitive combination of each input relation's candidate-touch
// fingerprint against its own side of the predicates (left first). Any
// mutation of a candidate segment on either side moves the combination, so
// cached join results invalidate segment-precisely on both inputs; the two
// sides are snapshotted under separate engine read locks, which can only
// cost a spurious miss (execution re-publishes under the fingerprint taken
// inside its own locked section).
func (db *DB) joinFingerprint(q *Query) (TouchFingerprint, error) {
	left, right, err := db.joinEngines(q)
	if err != nil {
		return TouchFingerprint{}, err
	}
	db.mu.RLock()
	ls := db.schemas[q.Table]
	db.mu.RUnlock()
	if ls == nil {
		return TouchFingerprint{}, fmt.Errorf("h2o: unknown table %q", q.Table)
	}
	lp, lsplit, rp, rsplit := exec.JoinSidePreds(q, ls.NumAttrs())
	return core.CombineFingerprints([]core.TouchFingerprint{
		left.SideFingerprint(lp, lsplit),
		right.SideFingerprint(rp, rsplit),
	}), nil
}

// joinEngines resolves the two engines behind a single-join query. Sharded
// tables have no single relation to build or probe, so they decline with a
// descriptive error (the scatter-gather seam for joins — shard the build
// side, broadcast the hash table, gather per-shard partials — is documented
// in internal/shard but not built yet).
func (db *DB) joinEngines(q *Query) (left, right *core.Engine, err error) {
	if len(q.Joins) != 1 {
		return nil, nil, fmt.Errorf("h2o: query joins %d tables; exactly one JOIN is supported", len(q.Tables()))
	}
	engines := make([]*core.Engine, 2)
	for i, name := range q.Tables() {
		h, err := db.handle(name)
		if err != nil {
			return nil, nil, err
		}
		e, ok := h.(*core.Engine)
		if !ok {
			return nil, nil, fmt.Errorf("h2o: join over table %q: sharded tables (Options.Shards > 1) do not support joins yet", name)
		}
		engines[i] = e
	}
	return engines[0], engines[1], nil
}

// viewJoin runs fn over a join's left and right relations inside one
// locked section, so a fingerprint and a scan taken in fn describe the same
// state. Two engines nest read locks in table-name order — the same order
// for every join, so concurrent joins over the same pair cannot deadlock;
// a self-join takes a single read lock (View is not reentrant).
func viewJoin(q *Query, left, right *core.Engine, fn func(lrel, rrel *storage.Relation) error) error {
	if left == right {
		return left.View(func(rel *storage.Relation) error { return fn(rel, rel) })
	}
	first, second := left, right
	swapped := q.Joins[0].Table < q.Table
	if swapped {
		first, second = right, left
	}
	return first.View(func(a *storage.Relation) error {
		return second.View(func(b *storage.Relation) error {
			if swapped {
				return fn(b, a)
			}
			return fn(a, b)
		})
	})
}

// joinStateFingerprint is joinFingerprint over relations the caller holds
// stable: the combination the result or partials are published under.
func joinStateFingerprint(q *Query, lrel, rrel *storage.Relation) TouchFingerprint {
	lp, lsplit, rp, rsplit := exec.JoinSidePreds(q, lrel.Schema.NumAttrs())
	return core.CombineFingerprints([]core.TouchFingerprint{
		core.TouchFingerprintPreds(lrel, lp, lsplit),
		core.TouchFingerprintPreds(rrel, rp, rsplit),
	})
}

// execJoin executes a join query over two engines (or one, self-joined).
// Fingerprint and execution happen inside the same locked section, so the
// published fingerprint describes exactly the state the result was computed
// from.
func (db *DB) execJoin(q *Query) (*Result, ExecInfo, error) {
	left, right, err := db.joinEngines(q)
	if err != nil {
		return nil, ExecInfo{}, err
	}
	start := time.Now()
	var res *Result
	var st exec.StrategyStats
	var fp TouchFingerprint
	err = viewJoin(q, left, right, func(lrel, rrel *storage.Relation) error {
		fp = joinStateFingerprint(q, lrel, rrel)
		var err error
		res, err = exec.ExecJoin(lrel, rrel, q, exec.ExecOpts{Workers: db.opts.Parallelism, Stats: &st})
		return err
	})
	if err != nil {
		return nil, ExecInfo{}, err
	}
	// SegmentsTouched stays nil: the touch list is indexed per relation and
	// a join spans two, so join executions report counts only (the serving
	// layer's per-segment cache heat simply sees no join contributions).
	return res, ExecInfo{
		Strategy:        exec.StrategyJoin,
		SegmentsScanned: st.SegmentsScanned,
		SegmentsPruned:  st.SegmentsPruned,
		SegmentsFaulted: st.SegmentsFaulted,
		Fingerprint:     fp,
		Duration:        time.Since(start),
	}, nil
}

// ExecDelta answers a repairable aggregate query by rescanning only the
// candidate segments whose versions differ from have (nil rescans all of
// them), under the table engine's read lock; a segment that only grew
// since is scanned from its old row count on. It is the serving layer's
// delta-repair tier, between an exact cache hit and a full execution:
// repeat aggregates over a tail-append workload are re-answered at
// O(appended rows) cost. have must be prior.Versions() of the partials
// payload later combined as exec.Repaired(prior, ds.Fresh, ds.Reused).
// A join query (exec.JoinRepairable) repairs on its probe side the same
// way, against a rebuilt build side (see execJoinDelta). ok=false means
// the full Exec path must answer instead: the query is not repairable (a
// self-join, say), or an adaptation phase is pending.
func (db *DB) ExecDelta(q *Query, have map[int]uint64) (*DeltaScan, bool, error) {
	if len(q.Joins) > 0 {
		return db.execJoinDelta(q, have)
	}
	h, err := db.handle(q.Table)
	if err != nil {
		return nil, false, err
	}
	return h.QueryDelta(q, have)
}

// execJoinDelta is ExecDelta for a join: exec.ExecJoinDelta under the same
// name-ordered read locks as execJoin, with the combined fingerprint taken
// inside them, so the repaired result publishes under the same key a full
// join of that state would. Like execJoin it neither observes nor triggers
// adaptation, and sharded inputs fail with joinEngines' error.
func (db *DB) execJoinDelta(q *Query, have map[int]uint64) (*DeltaScan, bool, error) {
	if !exec.JoinRepairable(q) {
		return nil, false, nil
	}
	left, right, err := db.joinEngines(q)
	if err != nil {
		return nil, false, err
	}
	ds := &DeltaScan{}
	err = viewJoin(q, left, right, func(lrel, rrel *storage.Relation) error {
		ds.Fingerprint = joinStateFingerprint(q, lrel, rrel)
		var err error
		ds.Fresh, ds.Reused, err = exec.ExecJoinDelta(lrel, rrel, q, have, db.opts.Parallelism, &ds.Stats)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return ds, true, nil
}

// Tables lists the registered table names.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	return out
}

// Parse parses a SQL statement against the catalog without executing it.
func (db *DB) Parse(src string) (*Query, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return sql.Parse(src, db.schemas)
}

// Query parses and executes one SQL statement: a select, or an insert
// ("insert into T values (...), (...)"), which returns an empty result with
// the inserted row count in ExecInfo-free form (Result.Rows).
func (db *DB) Query(src string) (*Result, ExecInfo, error) {
	if sql.IsInsert(src) {
		return db.execInsert(src)
	}
	q, err := db.Parse(src)
	if err != nil {
		return nil, ExecInfo{}, err
	}
	return db.Exec(q)
}

// QueryCtx is Query routed through the serving layer: selects go through the
// default server's worker pool and segment-precise result cache (started
// lazily on first use; size it explicitly with Serve for dedicated
// deployments), and honor ctx cancellation while queued. Inserts execute
// directly — they take the engine's exclusive lock and bump the tail
// segment's version, which strands cached results for queries that read
// the tail; queries pinned to other segments by their predicates keep
// hitting, and repeat aggregate queries are *delta-repaired* — only the
// changed segments are rescanned and re-combined with cached per-segment
// partials (ExecInfo.RepairedSegments reports how many). After Close,
// every QueryCtx call — inserts included — fails with ErrClosed.
//
// Results served from the cache are shared between clients: treat the
// returned Result as read-only.
func (db *DB) QueryCtx(ctx context.Context, src string) (*Result, ExecInfo, error) {
	if sql.IsInsert(src) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, ExecInfo{}, err
			}
		}
		db.srvMu.Lock()
		closed := db.srvClosed
		db.srvMu.Unlock()
		if closed {
			return nil, ExecInfo{}, ErrClosed
		}
		return db.execInsert(src)
	}
	q, err := db.Parse(src)
	if err != nil {
		return nil, ExecInfo{}, err
	}
	srv := db.defaultServer()
	if srv == nil {
		return nil, ExecInfo{}, ErrClosed
	}
	return srv.Query(ctx, q)
}

// execInsert parses and applies one insert statement.
func (db *DB) execInsert(src string) (*Result, ExecInfo, error) {
	db.mu.RLock()
	stmt, err := sql.ParseInsert(src, db.schemas)
	db.mu.RUnlock()
	if err != nil {
		return nil, ExecInfo{}, err
	}
	h, err := db.handle(stmt.Table)
	if err != nil {
		return nil, ExecInfo{}, err
	}
	if err := h.Insert(stmt.Rows); err != nil {
		return nil, ExecInfo{}, err
	}
	return &Result{Cols: []string{"inserted"}, Rows: 1,
		Data: []int64{int64(len(stmt.Rows))}}, ExecInfo{}, nil
}

// Serve starts a new serving layer over this catalog with explicit sizing:
// a bounded worker pool, an admission queue with context cancellation, a
// sharded LRU result cache keyed by (table, normalized query, touch
// fingerprint), a byte-budgeted partial-aggregate cache behind delta
// repair, and an admission fingerprint memo. The caller owns the returned
// server's lifecycle (Close it). A zero cfg.PartialCacheBytes inherits
// Options.PartialCacheBytes from the catalog before the server default
// applies.
func (db *DB) Serve(cfg ServerConfig) *Server {
	if cfg.PartialCacheBytes == 0 {
		cfg.PartialCacheBytes = db.opts.PartialCacheBytes
	}
	srv := server.New(db, cfg)
	db.adoptHeatServer(srv)
	return srv
}

// adoptHeatServer makes srv the catalog's cache-aware eviction signal:
// every budgeted engine's tier manager starts preferring eviction victims
// that few of srv's cached results and partials reference. The most
// recently built server wins — its caches are the ones future queries will
// hit — and engines registered later (AddTable, LoadTable) are wired on
// creation.
func (db *DB) adoptHeatServer(srv *server.Server) {
	db.mu.Lock()
	db.heatSrv = srv
	handles := make(map[string]core.Table, len(db.tables))
	for name, h := range db.tables {
		handles[name] = h
	}
	db.mu.Unlock()
	for name, h := range handles {
		wireSegmentHeat(h, srv, name)
	}
}

// wireSegmentHeat points one table's tier manager(s) at srv's per-segment
// cache-reference counts (a no-op on engines without a memory budget; a
// sharded router translates the global segment indices to shard-local
// ones). The closure holds the server, not the catalog, so a replaced
// table's old engine keeps a working — merely stale — heat source until it
// is closed.
func wireSegmentHeat(h core.Table, srv *server.Server, name string) {
	h.SetSegmentHeat(func() map[int]int { return srv.SegmentHeat(name) })
}

// defaultServer lazily starts the server behind QueryCtx, or returns nil
// after Close — the default server is not resurrected once shut down.
func (db *DB) defaultServer() *Server {
	db.srvMu.Lock()
	defer db.srvMu.Unlock()
	if db.srvClosed {
		return nil
	}
	if db.srv == nil {
		db.srv = server.New(db, ServerConfig{PartialCacheBytes: db.opts.PartialCacheBytes})
		db.adoptHeatServer(db.srv)
	}
	return db.srv
}

// ServeStats snapshots the default serving layer's counters (zero if
// QueryCtx was never used). Servers created with Serve report their own
// stats.
func (db *DB) ServeStats() ServerStats {
	db.srvMu.Lock()
	srv := db.srv
	db.srvMu.Unlock()
	if srv == nil {
		return ServerStats{}
	}
	return srv.Stats()
}

// Close shuts down the default serving layer, if QueryCtx ever started it,
// fences further QueryCtx calls with ErrClosed, and closes every engine —
// releasing tiered-storage spill files and temp directories. In-memory
// engines hold no external resources and close for free. Servers created
// with Serve are closed by their owners.
func (db *DB) Close() {
	db.srvMu.Lock()
	srv := db.srv
	db.srv = nil
	db.srvClosed = true
	db.srvMu.Unlock()
	if srv != nil {
		srv.Close()
	}
	db.mu.Lock()
	handles := make([]core.Table, 0, len(db.tables))
	for _, h := range db.tables {
		handles = append(handles, h)
	}
	db.mu.Unlock()
	for _, h := range handles {
		h.Close()
	}
}

// ImportCSV loads a table from a CSV stream (header = attribute names,
// integer cells) and registers it column-major.
func (db *DB) ImportCSV(r io.Reader, tableName string) (*Table, error) {
	t, err := data.ReadCSV(r, tableName)
	if err != nil {
		return nil, err
	}
	db.AddTable(t)
	return t, nil
}

// Exec executes a logical query. The catalog lock is released before
// execution: concurrent queries serialize only inside the engine, and only
// when they mutate.
func (db *DB) Exec(q *Query) (*Result, ExecInfo, error) {
	if len(q.Joins) > 0 {
		return db.execJoin(q)
	}
	h, err := db.handle(q.Table)
	if err != nil {
		return nil, ExecInfo{}, err
	}
	return h.Execute(q)
}

// TierStats reports a table's tiered-storage counters: how much of the
// relation is resident versus spilled to disk, and the lifetime fault /
// eviction counts. Zero-valued unless the database was built with
// Options.MemoryBudgetBytes set.
func (db *DB) TierStats(table string) (TierStats, error) {
	h, err := db.handle(table)
	if err != nil {
		return TierStats{}, err
	}
	return h.TierStats(), nil
}

// LayoutSignature describes a table's current physical layout. For a
// sharded table the per-shard signatures are joined in shard order —
// shards adapt independently, so they legitimately diverge.
func (db *DB) LayoutSignature(name string) (string, error) {
	h, err := db.handle(name)
	if err != nil {
		return "", err
	}
	return h.LayoutSignature(), nil
}

// SaveTable snapshots a table — data plus its current adapted layout — to a
// binary file. The snapshot is taken under the engine's read lock, so it is
// consistent even with concurrent inserts. On a budgeted table the save
// pages spilled segments in (the snapshot needs every byte); the memory
// budget is re-enforced immediately afterwards rather than waiting for the
// next query. Sharded tables cannot be snapshot (the format holds one
// relation) and return the Engine error.
func (db *DB) SaveTable(table, path string) error {
	e, err := db.Engine(table)
	if err != nil {
		return err
	}
	err = e.View(func(rel *storage.Relation) error {
		return persist.SaveFile(path, rel)
	})
	e.EnforceBudget()
	return err
}

// LoadTable restores a snapshot and registers it under its stored table
// name. The engine resumes with the adapted layout instead of re-learning
// it — for that reason a loaded table always runs on a single engine, even
// when Options.Shards > 1 (re-dealing the rows would discard the adapted
// per-segment layouts the snapshot exists to preserve).
func (db *DB) LoadTable(path string) (string, error) {
	rel, err := persist.LoadFile(path)
	if err != nil {
		return "", err
	}
	name := rel.Schema.Name
	db.register(name, rel.Schema, core.New(rel, db.opts))
	return name, nil
}
