package main

import (
	"h2o"
	"h2o/internal/exec"
)

// Workload, op-kind and metric names are final: BENCHMARK.json, result files
// and later issues refer to them. bench_test.go asserts that the names here
// and in BENCHMARK.json are the same set, so they cannot drift apart.

// opKind is one statement template of a workload's mix.
type opKind uint8

const (
	opSumExpr       opKind = iota // select sum(ai + aj + ...) from wide where aw < c
	opMultiAgg                    // select max(ai), min(aj), ... from wide where aw < c
	opProjection                  // select ai, aj, ... from wide where aw < c (selective)
	opRepeat                      // a statement drawn from the workload's pool
	opFreshScalar                 // fresh-constant 5%-window scalar aggregate
	opFreshGrouped                // fresh-constant 5%-window GROUP BY a1
	opJoin                        // a statement drawn from the workload's join pool
	opInsert                      // 64-row insert
	opRecent                      // fresh aggregate over the last 1-2 segments
	opWideWindow                  // fresh aggregate over 25-100% of the table
	opOldProjection               // narrow projection over a few old rows
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"sum_expr", "multi_agg", "projection", "repeat", "fresh_scalar",
	"fresh_grouped", "join", "insert", "recent", "wide_window", "old_projection",
}

// share is one entry of a workload's op mix, in percent of all ops.
type share struct {
	kind opKind
	pct  float64
}

const insertRows = 64 // rows per insert statement, every workload

// Table shapes at -scale 1.
const (
	wideAttrs, wideRows     = 100, 100_000
	eventsAttrs, eventsRows = 8, 2_000_000
	dimAttrs, dimRows       = 4, 4096
	eventsA1Card            = 64   // distinct values of events.a1 (group key)
	eventsA2Card            = 4096 // distinct values of events.a2 (join key)
	dimA1Card               = 16
	defaultSegCap           = 65536
)

// workloadSpec is everything that distinguishes one workload: its tables,
// client count, op mix, statement pools and the engine options it names.
type workloadSpec struct {
	name    string
	clients int
	tables  []string // first is the main table
	mix     []share
	// pool: statements repeated by opRepeat. poolTailEvery=n makes every
	// n-th pair of pool statements a window that includes the tail (0 = all
	// of them); zipf draws repeats Zipf(1.1), otherwise uniformly.
	pool, joinPool int
	poolTailEvery  int
	zipf           bool
	joinTail       bool // join-pool windows include the tail
	// phaseOps is adapt_seq's drift period: two of the five hot templates
	// are replaced every phaseOps ops.
	phaseOps int
	options  func(o *h2o.Options, spillDir string)
	// tracedOps is the op count of the traced (and the paired untraced)
	// one-client replay at -seconds 10 -scale 1, sized to take 3-4 s.
	tracedOps int
}

// frozen is set by the four workloads over events. With adaptation on, the
// engine keeps reorganizing events under the exclusive lock while it serves:
// which groups exist then depends on how the two clients interleaved, and
// between runs of the same code and seed the live heap ranges over a factor
// of two, the repair ratio from 0.27 to 0.52, and under a memory budget
// latencies from 1 ms to 2 s. Frozen keeps cost-based strategy choice and
// leaves the layout alone, so these workloads measure the serving, storage
// and shard layers; adaptation is adapt_seq's subject.
func frozen(o *h2o.Options) { o.Mode = h2o.ModeFrozen }

var workloads = []*workloadSpec{
	{
		name: "adapt_seq", clients: 1, tables: []string{"wide"},
		mix:      []share{{opSumExpr, 75}, {opMultiAgg, 15}, {opProjection, 10}},
		phaseOps: 32, tracedOps: 600,
	},
	{
		name: "serve_hot", clients: 2, tables: []string{"events", "dim"},
		mix:  []share{{opRepeat, 88}, {opFreshScalar, 4}, {opJoin, 2}, {opInsert, 2}, {opFreshGrouped, 4}},
		pool: 256, joinPool: 16, poolTailEvery: 4, zipf: true, tracedOps: 5000,
		options: func(o *h2o.Options, _ string) { frozen(o) },
	},
	{
		name: "serve_churn", clients: 2, tables: []string{"events", "dim"},
		mix:  []share{{opInsert, 25}, {opRepeat, 50}, {opFreshScalar, 8}, {opFreshGrouped, 7}, {opJoin, 10}},
		pool: 128, joinPool: 16, joinTail: true, tracedOps: 1500,
		options: func(o *h2o.Options, _ string) { frozen(o) },
	},
	{
		name: "cold_tier", clients: 2, tables: []string{"events"},
		mix: []share{{opRecent, 45}, {opWideWindow, 35}, {opOldProjection, 10}, {opInsert, 10}},
		options: func(o *h2o.Options, spillDir string) {
			o.MemoryBudgetBytes = 32 << 20 // a quarter of the 128 MiB flat size
			o.EncodedTier = true
			o.SpillDir = spillDir
			frozen(o)
		},
		tracedOps: 2000,
	},
	{
		name: "shard_churn", clients: 2, tables: []string{"events"},
		mix:  []share{{opInsert, 25}, {opRepeat, 50}, {opFreshScalar, 13}, {opFreshGrouped, 12}},
		pool: 128,
		options: func(o *h2o.Options, _ string) {
			o.Shards = 2
			frozen(o)
		},
		tracedOps: 1500,
	},
}

// readOnly reports whether the workload's mix has no inserts.
func (w *workloadSpec) readOnly() bool {
	for _, s := range w.mix {
		if s.kind == opInsert {
			return false
		}
	}
	return true
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of the store sees, measured with tracing off.
// ISSUE.md's fail_ratio is carried by the result's attempted/failed counts
// instead: the driver contract wants end-to-end metrics that are never 0.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"select_p50_us", "us"},
	{"select_p95_us", "us"},
	{"insert_p50_us", "us"},
	{"mem_live_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's ledger, prefix = module.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"sql.parse_us_p50", "us"},
		{"sql.parse_insert_us_p50", "us"},
		{"query.normalize_us_p50", "us"},
		{"server.hit_ratio", "ratio"},
		{"server.memo_hit_ratio", "ratio"},
		{"server.hit_us_p50", "us"},
		{"server.self_us_p50", "us"},
		{"server.repair_ratio", "ratio"},
		{"server.repaired_segments_per_repair", "count"},
		{"server.miss_ratio", "ratio"},
		{"server.republished_ratio", "ratio"},
		{"server.uncacheable_ratio", "ratio"},
		{"server.select_p99_us", "us"},
		{"core.fingerprint_us_p50", "us"},
		{"core.fingerprint_calls_per_select", "count"},
		{"core.delta_us_p50", "us"},
		{"core.exec_us_p50", "us"},
		{"core.exec_us_p95", "us"},
		{"core.self_us_p50", "us"},
		{"core.insert_us_p50", "us"},
		{"core.adaptations", "count"},
		{"core.reorgs", "count"},
		{"core.groups_created", "count"},
		{"core.groups_dropped", "count"},
		{"core.segments_reorganized", "count"},
		{"core.reorg_ms_total", "ms"},
		{"affinity.window_size_final", "count"},
		{"opgen.cache_hit_ratio", "ratio"},
		{"opgen.compile_ms_total", "ms"},
		{"costmodel.best_choice_ratio", "ratio"},
		{"costmodel.regret_p50", "ratio"},
		{"costmodel.est_over_measured_p50", "ratio"},
		{"exec.scan_us_p50", "us"},
		{"exec.rows_per_s", "1/s"},
		{"exec.segments_scanned_per_select", "count"},
		{"exec.prune_ratio", "ratio"},
	}
	for s := exec.StrategyRow; s <= exec.StrategyJoin; s++ {
		m = append(m, metricDef{"exec.strategy_share." + s.String(), "ratio"})
	}
	return append(m, []metricDef{
		{"exec.grouped_us_p50", "us"},
		{"exec.join_us_p50", "us"},
		{"exec.decode_skips_per_select", "count"},
		{"exec.encoded_kb_per_select", "KiB"},
		{"storage.faults_per_select", "count"},
		{"storage.fault_us_p50", "us"},
		{"storage.resident_mb", "MiB"},
		{"storage.encoded_mb", "MiB"},
		{"storage.spilled_mb", "MiB"},
		{"storage.demotions", "count"},
		{"storage.evictions", "count"},
		{"persist.spill_writes", "count"},
		{"persist.spill_file_mb", "MiB"},
		{"persist.faulted_mb", "MiB"},
		{"persist.file_bytes_per_flat_byte", "ratio"},
		{"persist.write_seg_us_p50", "us"},
		{"persist.read_seg_us_p50", "us"},
		{"shard.exec_us_p50", "us"},
		{"shard.delta_us_p50", "us"},
		{"shard.fingerprint_us_p50", "us"},
		{"shard.gather_self_us_p50", "us"},
		{"shard.row_skew", "ratio"},
		{"trace.select_p50_ratio", "ratio"},
		{"trace.spans", "count"},
	}...)
}()
