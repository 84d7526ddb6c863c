package h2o_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"h2o"
	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
	"h2o/internal/workload"
)

// TestIntegrationLifecycle drives the whole stack through one lifetime:
// SQL over a fresh table, adaptation under a hot pattern, snapshot, restore
// into a new process-equivalent DB, and identical answers afterwards.
func TestIntegrationLifecycle(t *testing.T) {
	db := h2o.NewDB()
	db.CreateTableFrom(h2o.SyntheticSchema("metrics", 24), 30_000, 2024)

	probes := []string{
		"select count(a0) from metrics",
		"select max(a3), min(a7), avg(a11) from metrics where a2 > 0",
		"select a1, a2 from metrics where a0 between -50000000 and 50000000 limit 10",
		"select sum(a4 + a8 + a12 + a16) from metrics where a4 < 0",
	}
	before := make([]*h2o.Result, len(probes))
	for i, src := range probes {
		res, _, err := db.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		before[i] = res
	}

	// Heat up one pattern until the engine reorganizes.
	hot := "select sum(a4 + a8 + a12 + a16) from metrics where a4 < 0"
	for i := 0; i < 40; i++ {
		if _, _, err := db.Query(hot); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := db.Engine("metrics")
	if e.Stats().GroupsCreated == 0 {
		t.Fatal("engine never adapted under the hot pattern")
	}

	// Snapshot the adapted store, restore it elsewhere.
	path := filepath.Join(t.TempDir(), "metrics.h2o")
	if err := db.SaveTable("metrics", path); err != nil {
		t.Fatal(err)
	}
	db2 := h2o.NewDB()
	if _, err := db2.LoadTable(path); err != nil {
		t.Fatal(err)
	}
	for i, src := range probes {
		res, _, err := db2.Query(src)
		if err != nil {
			t.Fatalf("restored %s: %v", src, err)
		}
		if !res.Equal(before[i]) {
			t.Fatalf("restored DB answers %q differently", src)
		}
	}
}

// TestIntegrationTraceReplay replays a generated workload trace through the
// SQL front end — the h2ogen ▸ h2oshell pipeline — and cross-checks every
// result against the static row-store engine.
func TestIntegrationTraceReplay(t *testing.T) {
	const nAttrs, rows = 40, 10_000
	tb := data.Generate(data.SyntheticSchema("R", nAttrs), rows, 5)

	db := h2o.NewDB()
	db.AddTable(tb)
	oracle := core.NewRowStore(tb, false)

	qs := workload.AdaptiveSequence("R", nAttrs, rows, 50, 5, 15, 5)
	for i, q := range qs {
		// Round-trip through SQL text, as a replayed trace file would.
		res, _, err := db.Query(q.String())
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, q, err)
		}
		want, _, err := oracle.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(want) {
			t.Fatalf("query %d (%s): replayed result differs from oracle", i, q)
		}
	}
}

// TestIntegrationConcurrentSQL hammers one table from several goroutines
// through the public API; run with -race.
func TestIntegrationConcurrentSQL(t *testing.T) {
	db := h2o.NewDB()
	db.CreateTableFrom(h2o.SyntheticSchema("t", 16), 8_000, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 15; i++ {
				a := rng.Intn(16)
				b := rng.Intn(16)
				src := fmt.Sprintf("select max(a%d), sum(a%d) from t where a%d > 0", a, b, (a+1)%16)
				if _, _, err := db.Query(src); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIntegrationAllStrategiesOnEvolvedLayout verifies that after the engine
// has evolved a hybrid layout, every executable strategy still produces the
// same answers on it — the invariant that makes cost-based strategy choice
// safe.
func TestIntegrationAllStrategiesOnEvolvedLayout(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 20), 15_000, 9)
	opts := core.DefaultOptions()
	opts.Window.InitialSize = 6
	e := core.NewH2O(tb, opts)
	hotAttrs := []data.AttrID{2, 6, 10, 14}
	for i := 0; i < 30; i++ {
		q := query.AggExpression("R", hotAttrs, query.PredLt(2, int64(i)*1e6))
		if _, _, err := e.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	rel := e.Relation()
	if rel.Kind() != storage.KindGroup {
		t.Skip("layout did not evolve at this scale")
	}
	probe := query.Aggregation("R", expr.AggMax, hotAttrs, query.PredGt(6, 0))
	want, err := exec.Exec(rel, probe, exec.ExecOpts{Strategy: exec.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := exec.Exec(rel, probe, exec.ExecOpts{Strategy: exec.StrategyColumn}); err != nil || !got.Equal(want) {
		t.Fatalf("column strategy on evolved layout: %v", err)
	}
	if got, err := exec.Exec(rel, probe, exec.ExecOpts{Strategy: exec.StrategyHybrid}); err != nil || !got.Equal(want) {
		t.Fatalf("hybrid strategy on evolved layout: %v", err)
	}
}
