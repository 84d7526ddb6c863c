// Package core assembles H2O (paper Figure 3): the Data Layout Manager that
// owns the relation's column groups, the Query Processor that picks the best
// (layout, execution strategy) combination per query with the cost model and
// runs it on exec's specialized kernels, and the Adaptation Mechanism that
// monitors the workload through a dynamic query window, proposes new
// layouts, and creates them lazily — fused into the first query that
// benefits.
//
// The package also provides the paper's comparison engines: a static
// row-store, a static column-store (both sharing this code base, as in §4.1)
// and the "optimal" oracle that enjoys a perfectly tailored layout for every
// query with no creation cost.
//
// Engines are safe for many simultaneous clients: read-only queries on a
// stable layout share a read lock and run concurrently (the paper's engines
// are "tuned to use all the available CPUs"), while inserts, adaptation
// phases and online reorganizations take an exclusive per-relation lock.
// An online reorganization fans its chunk ranges out across GOMAXPROCS
// workers while it holds that lock.
// Every mutation advances the version counter of each segment it touches;
// the serving layer (internal/server) keys its result cache on per-query
// touch fingerprints over those versions (see QueryFingerprint), so a
// mutation implicitly invalidates exactly the cached results whose queries
// read a mutated segment.
//
// Adaptation is *incremental* at segment granularity: relations are stored
// as fixed-capacity segments (internal/storage), and a triggered
// reorganization stitches the advisor's layout only into the segments the
// workload made hot — the rest keep their old layout, so a relation can
// legitimately hold mixed layouts across segments and a reorganization
// costs O(hot segments), not O(relation). Inserts likewise touch only the
// tail segment.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"h2o/internal/advisor"
	"h2o/internal/affinity"
	"h2o/internal/costmodel"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// Mode fixes or frees the engine's layout/strategy choices.
type Mode int

const (
	// ModeAdaptive is full H2O: monitoring, adaptation, lazy reorganization
	// and cost-based strategy choice.
	ModeAdaptive Mode = iota
	// ModeStaticRow pins the row layout and the volcano row strategy
	// (the paper's "Row-store" comparison engine).
	ModeStaticRow
	// ModeStaticColumn pins the column layout and the late-materialization
	// column strategy (the paper's "Column-store" comparison engine).
	ModeStaticColumn
	// ModeFrozen keeps whatever groups the relation has but disables
	// adaptation; strategy choice stays cost-based. Used for sensitivity
	// experiments over fixed hybrid layouts.
	ModeFrozen
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAdaptive:
		return "h2o-adaptive"
	case ModeStaticRow:
		return "row-store"
	case ModeStaticColumn:
		return "column-store"
	case ModeFrozen:
		return "frozen"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configure an engine instance.
type Options struct {
	Mode Mode
	// Window configures the monitoring window (adaptive mode only).
	Window affinity.Config
	// Advisor configures the adaptation algorithm.
	Advisor advisor.Config
	// Cost configures the cost model.
	Cost costmodel.Params
	// MaxGroups caps the number of co-existing column groups per segment;
	// beyond it the least-recently-used droppable group is evicted ("there is
	// not enough space to store these alternatives"). Zero selects an
	// automatic cap of 2x the schema width plus slack, so a fresh
	// column-major layout never starts over budget. Independently of the
	// count, a segment's groups may not hold more than 3x the segment's flat
	// size (rows × schema width × 8 bytes): past that, LRU droppable groups
	// are evicted the same way.
	MaxGroups int
	// Parallelism fans fused scans out across this many goroutines, one
	// task per storage segment (the paper's engines "use all the available
	// CPUs"). 0 or 1 keeps scans serial. It applies to scans only: an
	// online reorganization always fans out across GOMAXPROCS, since it
	// holds the exclusive lock and every other query waits for it anyway.
	Parallelism int
	// MemoryBudgetBytes caps the bytes of segment data this engine — i.e.
	// this one relation — holds in memory (tiered storage): when the
	// relation's resident footprint exceeds the budget, the engine spills
	// the coldest sealed segments to disk and pages them back in on
	// demand through a loader. The budget is per engine, so a catalog of
	// N budgeted tables can keep up to N x MemoryBudgetBytes resident.
	// Zone maps and all layout metadata stay resident, so spilled
	// segments are still pruned for free, and residency changes never
	// bump the relation version — cached results survive a spill/fault
	// cycle. 0 disables spilling (everything stays in memory).
	MemoryBudgetBytes int64
	// SpillDir is the directory for spilled segment files; file names
	// embed the relation name, so engines over distinct tables may share
	// one directory. Empty with a budget set selects a fresh temporary
	// directory, created at first spill and removed by Engine.Close. An
	// unusable directory never fails construction: eviction is skipped
	// and TierStats.SpillErrors counts the failures.
	SpillDir string
	// EncodedTier enables the compressed encoded tier: sealed segments
	// build per-column encoded blocks (FOR, delta or RLE, picked per
	// column at seal time), the memory-budget eviction ladder demotes
	// flat segments to their encoded form before resorting to spill
	// writes, and aggregate-shaped queries and projections execute
	// directly over the encoded blocks (exec.StrategyEncoded), skipping or
	// folding whole blocks from their headers. Off by default: mutable
	// tails and non-encoded relations behave exactly as before.
	EncodedTier bool
	// SegmentCapacity is the rows-per-segment of relations built *for* this
	// options set by the facade (h2o.DB table registration). The engine
	// itself executes over whatever segmentation its relation already has;
	// this knob only parameterizes construction. 0 selects
	// storage.DefaultSegmentCapacity (64K rows).
	SegmentCapacity int
	// PartialCacheBytes budgets the serving layer's per-segment partial
	// aggregate payloads (delta repair): the facade passes it through to
	// every server it builds over this catalog. The engine itself never
	// reads it — like the server sizing knobs, it parameterizes the layers
	// above. 0 selects the server default (4 MiB); negative disables
	// partial caching and with it delta repair.
	PartialCacheBytes int64
	// Shards splits every table the facade registers across this many
	// in-process engines behind a scatter-gather router (internal/shard):
	// segment-sized chunks place round-robin, layout adaptation stays
	// per-shard, and aggregate/grouped queries merge per-shard partial
	// aggregates under the partials merge law. Parallelism divides across
	// the shards. Like SegmentCapacity, the engine itself never reads it —
	// it parameterizes table construction in the layers above. 0 or 1
	// keeps the single-engine path.
	Shards int
}

// DefaultOptions returns the adaptive configuration used in §4.1.
func DefaultOptions() Options {
	return Options{
		Mode:    ModeAdaptive,
		Window:  affinity.DefaultConfig(),
		Advisor: advisor.DefaultConfig(),
		Cost:    costmodel.Default(),
		// MaxGroups 0 = automatic (2x schema width plus slack).
	}
}

// ExecInfo reports how one query was executed.
type ExecInfo struct {
	Strategy exec.Strategy
	Layout   storage.LayoutKind // kind of the layout actually scanned
	// Reorganized is true when the query piggybacked the creation of new
	// segment-local column groups (online reorganization).
	Reorganized bool
	// NewGroup is the attribute set of the groups created, if any.
	NewGroup []data.AttrID
	// SegmentsReorganized counts the segments that received the new group:
	// incremental adaptation touches only hot segments, so this is usually
	// far below the relation's segment count.
	SegmentsReorganized int
	// SegmentsScanned and SegmentsPruned report how much of the relation
	// the scan touched versus skipped outright via per-segment zone maps.
	SegmentsScanned int
	SegmentsPruned  int
	// SegmentsTouched lists the indices of the segments the execution
	// actually read, in ascending segment order (pruned and empty segments
	// excluded). len(SegmentsTouched) == SegmentsScanned.
	SegmentsTouched []int
	// Fingerprint identifies the candidate touch set — the segments q may
	// read per zone-map pruning — and their versions, computed under the
	// engine lock held for the execution (after any reorganization this
	// query performed). The serving layer keys its result cache on it:
	// mutations confined to segments outside the set leave it unchanged,
	// so cached results survive them.
	Fingerprint TouchFingerprint
	// SegmentsFaulted counts spilled segments this query paged in from
	// disk (tiered storage); zero when everything it touched was resident.
	SegmentsFaulted int
	// DecodeSkips counts encoded blocks whose payload was never decoded —
	// pruned or folded into the aggregate from the block header alone.
	// EncodedBytes is the encoded payload actually consumed. Both are zero
	// outside the encoded-direct path (Options.EncodedTier).
	DecodeSkips  int
	EncodedBytes int64
	// RepairedSegments counts the candidate segments a serving-layer delta
	// repair rescanned for this query — the segments whose versions moved
	// since the cached partials were computed, not the relation's segment
	// count. Zero for exact cache hits and full executions; set by the
	// serving layer (internal/server), never by the engine.
	RepairedSegments int
	// Deprecated: always zero; the operator generator is gone. Kept until
	// the benchmark retires its opgen.* metrics (ROADMAP D2).
	CompileTime time.Duration
	// Duration is the measured wall-clock execution time, including
	// reorganization time.
	Duration time.Duration
	// EstimatedCost is the cost model's estimate for the chosen plan.
	EstimatedCost costmodel.Seconds
	// WindowSize is the monitoring window size after this query.
	WindowSize int
	// CacheHit is set by the serving layer (internal/server) when the result
	// came from the versioned result cache instead of an execution; the
	// engine itself never sets it.
	CacheHit bool
}

// Stats accumulates engine-lifetime counters.
type Stats struct {
	Queries       int
	Adaptations   int
	Reorgs        int
	GroupsCreated int
	GroupsDropped int
	// Deprecated: always zero; the operator generator is gone. Kept until
	// the benchmark retires its opgen.* metrics (ROADMAP D2).
	OpCacheHits int
	// Deprecated: always zero; the operator generator is gone. Kept until
	// the benchmark retires its opgen.* metrics (ROADMAP D2).
	OpCacheMisses   int
	GenericFallback int
}

// Engine is one H2O instance bound to a single relation. Execute is safe
// for concurrent use and is designed for many simultaneous read-only
// clients: queries on a stable layout share a read lock and run in
// parallel, while mutations — inserts, adaptation phases, online
// reorganizations — take the exclusive lock. Lightweight per-query
// bookkeeping (the monitoring window, statistics, selectivity estimates,
// group recency) lives behind a second, short-critical-section mutex so it
// never serializes the scans themselves.
//
// Lock ordering: mu (any mode) may be held when acquiring stateMu; stateMu
// is a leaf lock — no code path acquires mu while holding it.
type Engine struct {
	// mu guards the relation: its data (appends) and its group set
	// (reorganization). Read-only query execution holds it shared.
	mu sync.RWMutex
	// stateMu guards the adaptive bookkeeping: win, pending, selEst,
	// lastUsed and stats. Critical sections are O(query attributes), never
	// O(rows).
	stateMu sync.Mutex

	rel   *storage.Relation
	opts  Options
	model *costmodel.Model
	win   *affinity.Window
	// tier enforces MemoryBudgetBytes (nil when no budget is set): it
	// spills cold sealed segments and serves as the relation's loader.
	tier *tierManager

	// pending holds adaptation proposals not yet materialized (lazy
	// layouts). Guarded by stateMu.
	pending []advisor.Proposal
	// declined remembers query patterns whose covering proposal was
	// evaluated and turned down (insufficient amortized gain), so repeat
	// queries stop paying the exclusive-lock reorg check and run on the
	// shared read path. Reset on every adaptation phase (new proposals, new
	// economics). Guarded by stateMu.
	declined map[string]struct{}
	// selEst tracks the observed selectivity per access pattern, feeding the
	// cost model's estimates. Guarded by stateMu.
	selEst map[string]float64
	// lastUsed tracks group recency for MaxGroups eviction. Guarded by
	// stateMu.
	lastUsed map[*storage.ColumnGroup]int

	// stats is guarded by stateMu.
	stats Stats
}

// New builds an engine over rel. The relation's current groups are the
// starting layout; the paper notes the initial layout only affects the first
// few queries.
func New(rel *storage.Relation, opts Options) *Engine {
	if opts.MaxGroups <= 0 {
		opts.MaxGroups = 2*rel.Schema.NumAttrs() + 16
	}
	e := &Engine{
		rel:      rel,
		opts:     opts,
		model:    costmodel.New(opts.Cost),
		win:      affinity.NewWindow(rel.Schema.NumAttrs(), opts.Window),
		selEst:   make(map[string]float64),
		lastUsed: make(map[*storage.ColumnGroup]int),
		declined: make(map[string]struct{}),
	}
	if opts.EncodedTier {
		rel.EncodeOnSeal = true
		// Backfill segments sealed before this engine existed (bulk
		// builds, snapshot loads): the encoded-direct scan path only
		// serves segments that already carry their encoded form.
		tail := rel.Tail()
		for _, seg := range rel.Segments {
			if seg == tail || seg.Rows == 0 || !seg.Resident() {
				continue
			}
			for _, g := range seg.Groups {
				g.Encoding()
			}
		}
	}
	if opts.MemoryBudgetBytes > 0 {
		e.tier = newTierManager(rel, opts.MemoryBudgetBytes, opts.SpillDir, opts.EncodedTier)
	}
	return e
}

// Relation exposes the engine's relation for inspection by tools and tests.
// The returned value is the live relation: do not mutate it, and do not read
// it while queries are executing concurrently — use View for reads that
// must coexist with concurrent clients.
func (e *Engine) Relation() *storage.Relation { return e.rel }

// View runs fn with the relation read-locked: safe against concurrent
// inserts and reorganizations. fn must not mutate the relation and must not
// call back into the engine (the lock is not reentrant).
func (e *Engine) View(fn func(*storage.Relation) error) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return fn(e.rel)
}

// LayoutSignature describes the relation's current physical layout, read
// under the shared lock.
func (e *Engine) LayoutSignature() string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rel.LayoutSignature()
}

// Version returns the relation's mutation counter: it advances on every
// insert and every layout reorganization. Serving layers key result caches
// on it. Safe to call without any engine lock.
func (e *Engine) Version() uint64 { return e.rel.Version() }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.stats
}

// PendingProposals returns the adaptation proposals awaiting a triggering
// query.
func (e *Engine) PendingProposals() []advisor.Proposal {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return append([]advisor.Proposal(nil), e.pending...)
}

// WindowSize returns the current monitoring window size.
func (e *Engine) WindowSize() int {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.win.Size()
}

// windowSize is WindowSize for internal callers that do not hold stateMu.
func (e *Engine) windowSize() int {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.win.Size()
}

// Execute runs one query: it monitors the access pattern, periodically runs
// the adaptation mechanism, lazily materializes a proposed layout when this
// query benefits, picks the cheapest (layout, strategy) combination and
// executes it.
//
// Concurrency: queries that neither trigger an adaptation phase nor are
// covered by a pending layout proposal — the steady state between
// workload shifts — execute under a shared read lock, so any number of
// them scan the relation simultaneously. Only adaptation, reorganization
// and inserts serialize on the exclusive lock.
func (e *Engine) Execute(q *query.Query) (*exec.Result, ExecInfo, error) {
	res, info, err := e.execute(q)
	// Scans and reorganizations may have paged spilled segments in;
	// re-enforce the memory budget only after every lock execute held is
	// released, under the shared lock — spill-file fsyncs never run under
	// the exclusive lock and never stall concurrent readers.
	e.EnforceBudget()
	return res, info, err
}

// execute is Execute without the budget-enforcement epilogue.
func (e *Engine) execute(q *query.Query) (*exec.Result, ExecInfo, error) {
	start := time.Now()
	info := query.InfoOf(q)
	adaptive := e.opts.Mode == ModeAdaptive

	var obs affinity.Observation
	exclusive := false
	e.stateMu.Lock()
	e.stats.Queries++
	if adaptive {
		obs = e.win.Observe(info)
		if obs.Due {
			exclusive = true
		} else if _, turned := e.declined[info.Pattern()]; !turned {
			exclusive = e.pendingCoversLocked(q.AllAttrs())
		}
	}
	e.stateMu.Unlock()

	if exclusive {
		e.mu.Lock()
		defer e.mu.Unlock()
		if obs.Due {
			// Re-check under the exclusive lock: several concurrent queries
			// can observe Due at the same window boundary, but only the
			// first to get here should run the adaptation phase —
			// MarkAdapted resets the counter, turning the rest into
			// ordinary queries.
			e.stateMu.Lock()
			stillDue := e.win.SinceAdaptation() >= e.win.Size()
			e.stateMu.Unlock()
			if stillDue {
				e.adapt()
			}
		}
		// Lazy reorganization: if a pending proposal covers this query and
		// the cost model says the new layout pays for itself within the
		// horizon, create it as part of answering the query.
		if res, execInfo, done, err := e.tryReorg(q, info, start); done {
			return res, execInfo, err
		}
		// The covering proposal (if any) did not fire for this pattern:
		// remember that, so repeats take the shared read path until the
		// next adaptation phase changes the proposal pool.
		e.stateMu.Lock()
		e.declined[info.Pattern()] = struct{}{}
		e.stateMu.Unlock()
		return e.run(q, info, start)
	}

	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.run(q, info, start)
}

// run picks the cheapest strategy and executes it. The caller holds e.mu in
// read or write mode.
func (e *Engine) run(q *query.Query, info query.Info, start time.Time) (*exec.Result, ExecInfo, error) {
	strategy, estCost := e.chooseStrategy(q, info)
	var st exec.StrategyStats
	var res *exec.Result
	var err error
	for _, opts := range e.execPlan(q, strategy) {
		if opts.Strategy == exec.StrategyGeneric && strategy != exec.StrategyGeneric {
			// The chosen strategy has no operators for this shape.
			e.stateMu.Lock()
			e.stats.GenericFallback++
			e.stateMu.Unlock()
		}
		st = exec.StrategyStats{}
		opts.Stats = &st
		if res, err = exec.Exec(e.rel, q, opts); err != exec.ErrUnsupported {
			// The encoded and generic fallbacks report themselves; a
			// parallel fused scan is the chosen row plan.
			if opts.Strategy == exec.StrategyEncoded || opts.Strategy == exec.StrategyGeneric {
				strategy = opts.Strategy
			}
			break
		}
	}
	if err != nil {
		return nil, ExecInfo{}, err
	}
	e.recordSelectivity(info, q, res)
	e.touchGroups(q)
	applyLimit(q, res)
	ei := e.execInfo(q, strategy, &st, start)
	ei.EstimatedCost = estCost
	return res, ei, nil
}

// execPlan lists the pipelines run tries for q, in order; run moves to the
// next only when one returns exec.ErrUnsupported. Caller holds e.mu.
//
//   - Encoded-direct, when the encoded tier is on and some unpruned segment
//     carries encoded blocks or lives spilled (exec.ServesEncoded): block
//     headers prune or fold whole blocks without touching their payloads,
//     and spilled segments fault in only their compact encoded form.
//     Expressions and unsplittable predicates are outside its reach.
//   - A fused row scan fanned out across Parallelism workers, one task per
//     segment, when the chosen plan is row and one group per segment covers
//     the query. A hybrid plan never needs it: where row is possible, its
//     cost never beats row's (TestHybridNeverBeatsRowWhenCovered).
//   - The chosen strategy, then the generic operator, which serves every
//     shape.
func (e *Engine) execPlan(q *query.Query, chosen exec.Strategy) []exec.ExecOpts {
	plan := make([]exec.ExecOpts, 0, 4)
	if e.opts.EncodedTier && exec.ServesEncoded(e.rel, q) {
		plan = append(plan, exec.ExecOpts{Strategy: exec.StrategyEncoded})
	}
	if e.opts.Parallelism > 1 && chosen == exec.StrategyRow && exec.RowCovered(e.rel, q) {
		plan = append(plan, exec.ExecOpts{Strategy: exec.StrategyRow, Workers: e.opts.Parallelism})
	}
	plan = append(plan, exec.ExecOpts{Strategy: chosen})
	if chosen != exec.StrategyGeneric {
		plan = append(plan, exec.ExecOpts{Strategy: exec.StrategyGeneric})
	}
	return plan
}

// execInfo reports one finished execution of q under strategy s. Caller
// holds e.mu, so the fingerprint matches exactly the state the result was
// read from (after any reorganization the query performed).
func (e *Engine) execInfo(q *query.Query, s exec.Strategy, st *exec.StrategyStats, start time.Time) ExecInfo {
	return ExecInfo{
		Strategy:        s,
		Layout:          e.rel.Kind(),
		WindowSize:      e.windowSize(),
		SegmentsScanned: st.SegmentsScanned,
		SegmentsPruned:  st.SegmentsPruned,
		SegmentsFaulted: st.SegmentsFaulted,
		SegmentsTouched: st.Touched,
		DecodeSkips:     st.DecodeSkips,
		EncodedBytes:    st.EncodedBytes,
		Fingerprint:     TouchFingerprintOf(e.rel, q),
		Duration:        time.Since(start),
	}
}

// pendingCoversLocked reports whether any pending proposal covers the
// attribute set. Caller holds stateMu.
func (e *Engine) pendingCoversLocked(all []data.AttrID) bool {
	for i := range e.pending {
		if data.ContainsAll(e.pending[i].Attrs, all) {
			return true
		}
	}
	return false
}

// Insert appends tuples (full-width, schema attribute order) to the
// relation. Every column group — including groups the adaptation mechanism
// created — grows consistently, and the tail segment's version advances so
// result caches drop entries for queries that read the tail (entries
// pinned to other segments by their predicates survive).
func (e *Engine) Insert(tuples [][]data.Value) error {
	e.mu.Lock()
	err := e.rel.AppendBatch(tuples)
	e.mu.Unlock()
	if err != nil {
		return err
	}
	// A batch can seal the tail, making a fresh segment evictable; keep
	// the resident footprint under the memory budget. Enforcement runs
	// under the shared lock, after the exclusive one is released, so the
	// spill-file fsyncs never stall concurrent readers behind the write
	// lock.
	if e.tier != nil {
		e.mu.RLock()
		e.tier.enforce()
		e.mu.RUnlock()
	}
	return nil
}

// Explanation is the engine's plan report for one query, without executing
// it.
type Explanation struct {
	Strategy      exec.Strategy
	EstimatedCost costmodel.Seconds
	// Alternatives lists every executable strategy with its estimated cost,
	// cheapest first.
	Alternatives []StrategyCost
	// CoveringGroups is the attribute signature of each group the plan
	// would touch.
	CoveringGroups []string
	// PendingProposal is non-nil when a lazy layout proposal covers this
	// query (the next execution may reorganize).
	PendingProposal *advisor.Proposal
}

// StrategyCost pairs a strategy with its cost-model estimate.
type StrategyCost struct {
	Strategy exec.Strategy
	Cost     costmodel.Seconds
}

// Explain reports how the engine would execute q right now: the chosen
// strategy, the cost of every alternative, the groups the plan touches and
// whether a pending proposal covers the query. It does not execute the
// query and does not advance the monitoring window.
func (e *Engine) Explain(q *query.Query) (Explanation, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	info := query.InfoOf(q)
	est := e.estimateSelectivity(info, q)
	var ex Explanation
	for _, s := range exec.ExplainStrategies() {
		plan := exec.AccessPlan(s, e.rel, q, est)
		if plan == nil {
			continue
		}
		ex.Alternatives = append(ex.Alternatives, StrategyCost{Strategy: s, Cost: e.model.QueryCost(plan)})
	}
	if len(ex.Alternatives) == 0 {
		return ex, fmt.Errorf("core: no executable strategy for %s", q)
	}
	sort.Slice(ex.Alternatives, func(i, j int) bool { return ex.Alternatives[i].Cost < ex.Alternatives[j].Cost })
	ex.Strategy = ex.Alternatives[0].Strategy
	ex.EstimatedCost = ex.Alternatives[0].Cost
	groups, _, err := e.rel.CoveringGroups(q.AllAttrs())
	if err != nil {
		return ex, err
	}
	for _, g := range groups {
		ex.CoveringGroups = append(ex.CoveringGroups, fmt.Sprint(g.Attrs))
	}
	all := q.AllAttrs()
	e.stateMu.Lock()
	for i := range e.pending {
		if data.ContainsAll(e.pending[i].Attrs, all) {
			p := e.pending[i]
			ex.PendingProposal = &p
			break
		}
	}
	e.stateMu.Unlock()
	return ex, nil
}

// adapt runs one adaptation phase: evaluate the window, compute proposals,
// keep them pending (lazy creation). Caller holds e.mu exclusively.
func (e *Engine) adapt() {
	e.stateMu.Lock()
	e.stats.Adaptations++
	e.win.MarkAdapted()
	recent := append([]query.Info(nil), e.win.Recent()...)
	e.stateMu.Unlock()

	proposals := advisor.Propose(e.rel, recent, e.model, e.opts.Advisor)

	e.stateMu.Lock()
	// Replace the pending pool: old un-triggered proposals reflect an older
	// window ("the recent query history is used as a trigger"), and past
	// reorg refusals no longer apply to the new pool.
	e.pending = proposals
	e.declined = make(map[string]struct{})
	e.stateMu.Unlock()

	// Segment hotness restarts with the new window: reorganization triggered
	// by the queries ahead should reflect where *they* concentrate.
	for _, seg := range e.rel.Segments {
		seg.ResetReads()
	}
}

// tryReorg checks whether a pending proposal should be materialized by this
// query. When it fires, the reorganizing operator answers the query while
// stitching the proposed group into the *hot* segments only — segments the
// recent workload scanned (plus those this query touches); cold segments
// keep their layout and their groups are neither copied nor rescanned, so
// one trigger costs O(hot segments). The proposal stays pending until every
// segment carries the group, letting later queries extend the layout to
// segments that become hot. Caller holds e.mu exclusively; every
// pending-pool mutator (adapt, removePending callers) also runs under the
// exclusive lock, so iterating e.pending directly is stable and race-free —
// concurrent holders of stateMu only read it.
func (e *Engine) tryReorg(q *query.Query, info query.Info, start time.Time) (*exec.Result, ExecInfo, bool, error) {
	all := q.AllAttrs()
	// A reorganization must pay for itself within the current window's
	// worth of future queries.
	horizon := e.windowSize()
	// The current plan's cost is the same for every proposal: price it at
	// the first covering proposal, once per call.
	var currCost costmodel.Seconds
	priced := false
	for i, p := range e.pending {
		if !data.ContainsAll(p.Attrs, all) {
			continue
		}
		if _, exists := e.rel.ExactGroup(p.Attrs); exists {
			e.removePending(i)
			return nil, ExecInfo{}, false, nil
		}
		// Does the new layout beat the current best plan by enough to
		// amortize the move within the horizon? Gain and move volume are
		// both restricted to the hot segments: adapting three hot segments
		// can pay even when reorganizing the whole relation would not.
		if !priced {
			_, currCost = e.chooseStrategy(q, info)
			priced = true
		}
		newCost := e.costOnGroup(len(p.Attrs), len(all))
		gain := currCost - newCost
		if gain <= 0 {
			continue
		}
		hot, hotRows, hotBytes := e.hotSegments(q, p)
		if hotRows == 0 {
			continue
		}
		gainHot := costmodel.Seconds(float64(gain) * float64(hotRows) / float64(e.rel.Rows))
		if !e.model.ReorgPays(gainHot, horizon, hotBytes) {
			continue
		}

		// Every core, not Options.Parallelism: the pass holds the
		// exclusive lock, so every other query waits for it anyway.
		var st exec.StrategyStats
		var newGroups []*storage.ColumnGroup
		res, err := exec.Exec(e.rel, q, exec.ExecOpts{
			Strategy:   exec.StrategyReorg,
			Workers:    runtime.GOMAXPROCS(0),
			ReorgAttrs: p.Attrs,
			HotMask:    hot,
			NewGroups:  &newGroups,
			Stats:      &st,
		})
		if err != nil {
			return nil, ExecInfo{}, true, err
		}
		applyLimit(q, res)
		reorged := 0
		for si, g := range newGroups {
			if g == nil {
				continue
			}
			if err := e.rel.Segments[si].AddGroup(g); err != nil {
				return nil, ExecInfo{}, true, err
			}
			reorged++
		}
		e.stateMu.Lock()
		e.stats.Reorgs++
		e.stats.GroupsCreated++
		e.stateMu.Unlock()
		if _, exists := e.rel.ExactGroup(p.Attrs); exists {
			// Every segment adapted: the proposal is fully realized.
			e.removePending(i)
		}
		e.touchGroups(q)
		e.evictIfNeeded()
		e.recordSelectivity(info, q, res)
		// Reorganization paged hot segments in and added new groups; the
		// budget is re-enforced by Execute's epilogue once the exclusive
		// lock is released.

		ei := e.execInfo(q, exec.StrategyReorg, &st, start)
		ei.Layout = storage.KindGroup
		ei.Reorganized = true
		ei.NewGroup = p.Attrs
		ei.SegmentsReorganized = reorged
		return res, ei, true, nil
	}
	return nil, ExecInfo{}, false, nil
}

// hotSegments classifies the relation's segments for an incremental
// reorganization into attrs: a segment is hot when the workload scanned it
// at least once since the last adaptation phase, or when
// the triggering query itself will touch it (it is about to be scanned
// anyway, so stitching rides along for free). Segments that already carry
// the group are never re-stitched. Returns the hot mask, the hot row count
// and the per-segment transform volume summed over hot segments. Caller
// holds e.mu exclusively.
func (e *Engine) hotSegments(q *query.Query, p advisor.Proposal) (hot []bool, hotRows int, hotBytes int64) {
	hot = make([]bool, len(e.rel.Segments))
	for si, seg := range e.rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		if _, exists := seg.ExactGroup(p.Attrs); exists {
			continue
		}
		if seg.Reads() == 0 && !exec.QueryTouchesSegment(seg, q) {
			continue
		}
		hot[si] = true
		hotRows += seg.Rows
		if si < len(p.SegmentBytes) && p.SegmentBytes[si] > 0 {
			hotBytes += p.SegmentBytes[si]
		} else if b, err := storage.SegTransformBytes(seg, p.Attrs); err == nil {
			// Segments appended after the proposal was priced.
			hotBytes += b
		}
	}
	return hot, hotRows, hotBytes
}

// removePending drops the i-th pending proposal. Caller holds e.mu
// exclusively; stateMu guards the write against concurrent readers.
func (e *Engine) removePending(i int) {
	e.stateMu.Lock()
	// Clear the vacated last slot so its proposal's slices can be freed.
	last := len(e.pending) - 1
	copy(e.pending[i:], e.pending[i+1:])
	e.pending[last] = advisor.Proposal{}
	e.pending = e.pending[:last]
	e.stateMu.Unlock()
}

// chooseStrategy evaluates the available (layout, strategy) combinations
// with the cost model and returns the cheapest executable one.
func (e *Engine) chooseStrategy(q *query.Query, info query.Info) (exec.Strategy, costmodel.Seconds) {
	switch e.opts.Mode {
	case ModeStaticRow:
		return exec.StrategyRow, 0
	case ModeStaticColumn:
		return exec.StrategyColumn, 0
	}
	est := e.estimateSelectivity(info, q)
	best := exec.StrategyGeneric
	var bestCost costmodel.Seconds
	first := true
	for _, s := range exec.CostedStrategies() {
		plan := exec.AccessPlan(s, e.rel, q, est)
		if plan == nil {
			continue
		}
		c := e.model.QueryCost(plan)
		if first || c < bestCost {
			best, bestCost, first = s, c, false
		}
	}
	return best, bestCost
}

// costOnGroup estimates the query cost if a dedicated group of the given
// width existed: one fused pass over it, predicates pushed down, so every
// tuple is scanned whatever the selectivity.
func (e *Engine) costOnGroup(groupWidth, used int) costmodel.Seconds {
	return e.model.QueryCost([]costmodel.GroupAccess{{
		Stride: groupWidth, Width: groupWidth, Used: used,
		Rows: e.rel.Rows, Selectivity: 1,
	}})
}

// estimateSelectivity returns the engine's selectivity estimate for the
// query's pattern: the last observed selectivity if the pattern was seen
// before, else the advisor's default.
func (e *Engine) estimateSelectivity(info query.Info, q *query.Query) float64 {
	if q != nil && q.Where == nil {
		return 1
	}
	e.stateMu.Lock()
	s, ok := e.selEst[info.Pattern()]
	e.stateMu.Unlock()
	if ok {
		return s
	}
	return e.opts.Advisor.EstSelectivity
}

// recordSelectivity updates the per-pattern selectivity estimate from the
// observed result cardinality. Caller holds e.mu (any mode), keeping
// rel.Rows stable. Limited queries are skipped: their scans stop consuming
// segments once the limit is reached, so the observed row count is a
// prefix artifact, not the pattern's true selectivity (and the pattern key
// is shared with unlimited queries).
func (e *Engine) recordSelectivity(info query.Info, q *query.Query, res *exec.Result) {
	// Grouped queries are skipped like aggregates: their result cardinality
	// is the number of distinct key vectors, not the qualifying row count.
	if q.Where == nil || q.HasAggregates() || len(q.GroupBy) > 0 || q.Limit > 0 || e.rel.Rows == 0 {
		return
	}
	sel := float64(res.Rows) / float64(e.rel.Rows)
	e.stateMu.Lock()
	e.selEst[info.Pattern()] = sel
	e.stateMu.Unlock()
}

// applyLimit truncates a materialized result to q.Limit rows. Aggregate
// results (one row) are unaffected. The scan itself already stops consuming
// segments once the limit is reached (see the exec drivers); this trims the
// overshoot within the last scanned segment to exactly N rows. Grouped
// results scan every candidate segment regardless (the limit applies to
// groups, not rows), then trim here to the first N groups in key order —
// deterministic because every strategy emits groups ordered by key vector.
func applyLimit(q *query.Query, res *exec.Result) {
	if q.Limit <= 0 || res.Rows <= q.Limit {
		return
	}
	res.Rows = q.Limit
	res.Data = res.Data[:q.Limit*len(res.Cols)]
}

// touchGroups marks the segment-local groups serving q as recently used.
// The greedy set cover runs once per *distinct layout signature*, not once
// per segment — on the common uniform relation that is a single cover plus
// a cheap exact-group lookup per segment, keeping the stateMu critical
// section flat as segment counts grow. Caller holds e.mu (any mode).
func (e *Engine) touchGroups(q *query.Query) {
	all := q.AllAttrs()
	covers := make(map[string][][]data.AttrID, 1)
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	now := e.stats.Queries
	for _, seg := range e.rel.Segments {
		sig := seg.LayoutSignature()
		sets, seen := covers[sig]
		if !seen {
			groups, _, err := seg.CoveringGroups(all)
			if err != nil {
				covers[sig] = nil
				continue
			}
			for _, g := range groups {
				sets = append(sets, g.Attrs)
				e.lastUsed[g] = now
			}
			covers[sig] = sets
			continue
		}
		for _, attrs := range sets {
			if g, ok := seg.ExactGroup(attrs); ok {
				e.lastUsed[g] = now
			}
		}
	}
}

// maxGroupBytesFactor caps one segment's group bytes at this multiple of
// its flat size (rows × schema width × 8 bytes). Every adaptation adds
// groups, and the count cap alone lets a wide schema keep dozens of
// redundant copies of each segment.
const maxGroupBytesFactor = 3

// evictIfNeeded drops least-recently-used groups while a segment is over
// either per-segment cap — more than MaxGroups groups, or group bytes above
// maxGroupBytesFactor × the segment's flat size — never breaking schema
// coverage. The caps apply segment by segment — layouts are segment-local,
// so the budget is too. Undroppable groups (sole cover of some attribute)
// are skipped in favor of the next-least-recently-used one. Caller holds
// e.mu exclusively (it mutates the group sets).
func (e *Engine) evictIfNeeded() {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	width := int64(e.rel.Schema.NumAttrs())
	for _, seg := range e.rel.Segments {
		// Spilled segments are skipped: dropping a group there would save
		// disk, not memory, and would strand the segment's spill file (a
		// group-set mutation bumps the version the file was written at).
		// Mutations require residency.
		if !seg.Resident() {
			continue
		}
		maxBytes := maxGroupBytesFactor * int64(seg.Rows) * width * 8
		for len(seg.Groups) > e.opts.MaxGroups || seg.Bytes() > maxBytes {
			candidates := append([]*storage.ColumnGroup(nil), seg.Groups...)
			sort.Slice(candidates, func(i, j int) bool {
				return e.lastUsed[candidates[i]] < e.lastUsed[candidates[j]]
			})
			dropped := false
			for _, g := range candidates {
				if seg.DropGroup(g) {
					delete(e.lastUsed, g)
					e.stats.GroupsDropped++
					dropped = true
					break
				}
			}
			if !dropped {
				break // every group is load-bearing; live over the cap
			}
		}
	}
}
