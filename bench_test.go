// Benchmarks mapping one-to-one onto the paper's tables and figures: each
// BenchmarkFig*/BenchmarkTable* regenerates the corresponding experiment
// through the harness at smoke scale. Run the full-scale versions with
// cmd/h2obench (go run ./cmd/h2obench -exp all).
//
// The BenchmarkServe* benchmarks measure the concurrent serving layer
// instead: run them with increasing -cpu values (e.g. -cpu 1,2,4,8) to see
// queries-per-second scale with client count on cache-hit and read-only
// workloads. cmd/h2obench -exp serve prints the same sweep as a table.
package h2o_test

import (
	"context"
	"fmt"
	"testing"

	"h2o"
	"h2o/internal/harness"
)

// benchCfg is the smoke-scale configuration: the benchmark suite exercises
// every experiment's full code path; absolute numbers come from h2obench.
var benchCfg = harness.Config{Quick: true}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := harness.Run(name, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", name)
		}
	}
}

// BenchmarkFig1RowVsColumn regenerates Figure 1 (the motivating crossover).
func BenchmarkFig1RowVsColumn(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2a regenerates Figure 2(a): projectivity sweep, no where clause.
func BenchmarkFig2a(b *testing.B) { benchExperiment(b, "fig2a") }

// BenchmarkFig2b regenerates Figure 2(b): projectivity sweep, selectivity 40%.
func BenchmarkFig2b(b *testing.B) { benchExperiment(b, "fig2b") }

// BenchmarkFig2c regenerates Figure 2(c): projectivity sweep, selectivity 1%.
func BenchmarkFig2c(b *testing.B) { benchExperiment(b, "fig2c") }

// BenchmarkFig7Adaptive regenerates Figure 7 (per-query adaptive sequence).
func BenchmarkFig7Adaptive(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTable1Cumulative regenerates Table 1 (cumulative times).
func BenchmarkTable1Cumulative(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig8SkyServer regenerates Figure 8 (H2O vs AutoPart).
func BenchmarkFig8SkyServer(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9Window regenerates Figure 9 (static vs dynamic window).
func BenchmarkFig9Window(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10a regenerates Figure 10(a): projections vs #attributes.
func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }

// BenchmarkFig10b regenerates Figure 10(b): aggregations vs #attributes.
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }

// BenchmarkFig10c regenerates Figure 10(c): expressions vs #attributes.
func BenchmarkFig10c(b *testing.B) { benchExperiment(b, "fig10c") }

// BenchmarkFig10d regenerates Figure 10(d): projections vs selectivity.
func BenchmarkFig10d(b *testing.B) { benchExperiment(b, "fig10d") }

// BenchmarkFig10e regenerates Figure 10(e): aggregations vs selectivity.
func BenchmarkFig10e(b *testing.B) { benchExperiment(b, "fig10e") }

// BenchmarkFig10f regenerates Figure 10(f): expressions vs selectivity.
func BenchmarkFig10f(b *testing.B) { benchExperiment(b, "fig10f") }

// BenchmarkFig11Subset regenerates Figure 11 (subset-of-group penalty).
func BenchmarkFig11Subset(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12MultiGroup regenerates Figure 12 (multi-group access).
func BenchmarkFig12MultiGroup(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13OnlineReorg regenerates Figure 13 (online vs offline reorg).
func BenchmarkFig13OnlineReorg(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14Codegen regenerates Figure 14 (generic vs generated code).
func BenchmarkFig14Codegen(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkAblationWindow sweeps the monitoring window size.
func BenchmarkAblationWindow(b *testing.B) { benchExperiment(b, "ablation-window") }

// BenchmarkAblationGroups sweeps the MaxGroups layout budget.
func BenchmarkAblationGroups(b *testing.B) { benchExperiment(b, "ablation-groups") }

// BenchmarkAblationOscillate measures reorganization damping under
// oscillating workloads.
func BenchmarkAblationOscillate(b *testing.B) { benchExperiment(b, "ablation-oscillate") }

// serveDB builds the serving-benchmark fixture: one table behind a server.
func serveDB(b *testing.B, cacheEntries int) (*h2o.DB, *h2o.Server) {
	b.Helper()
	db := h2o.NewDB()
	db.CreateTableFrom(h2o.SyntheticSchema("events", 16), 50_000, 17)
	srv := db.Serve(h2o.ServerConfig{CacheEntries: cacheEntries})
	return db, srv
}

// BenchmarkServeCacheHit measures the hot path of the serving layer: every
// client replays the same query, so after the first execution everything is
// a sharded-LRU cache hit. Throughput should scale near-linearly with -cpu.
func BenchmarkServeCacheHit(b *testing.B) {
	db, srv := serveDB(b, 4096)
	defer srv.Close()
	q, err := db.Parse("select max(a1), min(a2) from events where a0 < 0")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := srv.Query(ctx, q); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := srv.Query(ctx, q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkServeDeltaRepair measures the repair tier of the serving layer:
// each iteration appends one row (stranding the cached full-relation
// aggregate) and re-runs the aggregate, which is answered by rescanning
// only the changed tail segment and re-combining with the cached
// per-segment partials. Compare with BenchmarkServeReadOnly at the same
// scale to see the O(changed segments) vs O(relation) gap; cmd/h2obench
// -exp repair prints the gap as a sweep over relation sizes.
func BenchmarkServeDeltaRepair(b *testing.B) {
	opts := h2o.DefaultOptions()
	opts.Mode = h2o.ModeFrozen // only the appends mutate
	opts.SegmentCapacity = 4096
	db := h2o.NewDBWith(opts)
	db.CreateTableFrom(h2o.SyntheticSchema("events", 8), 64*1024, 17) // 16 segments
	srv := db.Serve(h2o.ServerConfig{Workers: 2})
	defer srv.Close()
	q, err := db.Parse("select sum(a1), sum(a2) from events")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := srv.Query(ctx, q); err != nil { // seed the partials
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Query("insert into events values (1, 2, 3, 4, 5, 6, 7, 8)"); err != nil {
			b.Fatal(err)
		}
		if _, info, err := srv.Query(ctx, q); err != nil {
			b.Fatal(err)
		} else if i > 0 && info.RepairedSegments == 0 {
			b.Fatal("repair tier not exercised")
		}
	}
}

// BenchmarkServeGroupedRepair measures the repair tier on a GROUP BY
// aggregate: each iteration appends one row and re-runs the grouped query,
// which is answered by merging the cached per-segment group maps with a
// rescan of only the changed tail segment. cmd/h2obench -exp groupby prints
// grouped repair vs full re-aggregation as a sweep over relation sizes.
func BenchmarkServeGroupedRepair(b *testing.B) {
	opts := h2o.DefaultOptions()
	opts.Mode = h2o.ModeFrozen // only the appends mutate
	opts.SegmentCapacity = 4096
	db := h2o.NewDBWith(opts)
	tb := h2o.GenerateTimeSeries(h2o.SyntheticSchema("events", 8), 64*1024, 17) // 16 segments
	for r := 0; r < tb.Rows; r++ {
		// Fold the key column to 64 distinct groups: the synthetic domain is
		// near-unique, which would benchmark giant-map merging instead of
		// repair.
		if tb.Cols[3][r] %= 64; tb.Cols[3][r] < 0 {
			tb.Cols[3][r] += 64
		}
	}
	db.AddTable(tb)
	srv := db.Serve(h2o.ServerConfig{Workers: 2})
	defer srv.Close()
	q, err := db.Parse("select a3, sum(a1), count(a2) from events group by a3")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := srv.Query(ctx, q); err != nil { // seed the grouped partials
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Query(fmt.Sprintf("insert into events values (1, 2, 3, %d, 5, 6, 7, 8)", i%64)); err != nil {
			b.Fatal(err)
		}
		if _, info, err := srv.Query(ctx, q); err != nil {
			b.Fatal(err)
		} else if i > 0 && info.RepairedSegments == 0 {
			b.Fatal("grouped repair tier not exercised")
		}
	}
}

// BenchmarkServeReadOnly measures concurrent execution with the cache
// disabled: every query scans under the engine's shared read lock. Scaling
// with -cpu here demonstrates that read-only queries no longer serialize
// behind one mutex.
func BenchmarkServeReadOnly(b *testing.B) {
	db, srv := serveDB(b, -1)
	defer srv.Close()
	queries := make([]*h2o.Query, 16)
	for i := range queries {
		q, err := db.Parse(fmt.Sprintf("select max(a%d) from events where a%d < 0", i%16, (i+1)%16))
		if err != nil {
			b.Fatal(err)
		}
		queries[i] = q
	}
	ctx := context.Background()
	// Settle the adaptive machinery so the steady state is read-only.
	for _, q := range queries {
		if _, _, err := srv.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := srv.Query(ctx, queries[i%len(queries)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
