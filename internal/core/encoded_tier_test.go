package core

import (
	"fmt"
	"sync"
	"testing"

	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// encodedEngine is spillEngine with the compressed encoded tier enabled:
// sealed segments carry per-column encoded blocks, eviction demotes before
// it spills, and aggregate-shaped queries take the encoded-direct path.
func encodedEngine(t testing.TB, rows, segCap int, budget int64) (*Engine, *data.Table) {
	t.Helper()
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), rows, 31)
	opts := DefaultOptions()
	opts.Mode = ModeFrozen
	opts.MemoryBudgetBytes = budget
	opts.SpillDir = t.TempDir()
	opts.EncodedTier = true
	return New(storage.BuildColumnMajorSeg(tb, segCap), opts), tb
}

// TestEncodedTierStrategyAndCounters: with the encoded tier on, aggregate
// queries execute encoded-direct — reporting StrategyEncoded with live
// decode-skip counters — and still agree with the flat reference engine;
// shapes the encoded kernel cannot serve fall through to the cost-based
// strategies untouched.
func TestEncodedTierStrategyAndCounters(t *testing.T) {
	const rows, segCap = 4_000, 250
	e, tb := encodedEngine(t, rows, segCap, 0)
	defer e.Close()

	agg := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
	res, info, err := e.Execute(agg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != exec.StrategyEncoded {
		t.Fatalf("aggregate ran %v, want %v", info.Strategy, exec.StrategyEncoded)
	}
	if !res.Equal(reference(tb, agg)) {
		t.Fatal("encoded-direct aggregate diverged from flat reference")
	}
	// An unselective aggregate folds every sealed block from its header:
	// the payloads are never decoded.
	if info.DecodeSkips == 0 {
		t.Fatalf("unselective aggregate decoded every block: %+v", info)
	}

	// A selective aggregate consumes at least the predicate column's
	// payload in the matching blocks.
	sel := query.Aggregation("R", expr.AggMax, []data.AttrID{3}, query.PredLt(0, 900))
	res, info, err = e.Execute(sel)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != exec.StrategyEncoded {
		t.Fatalf("selective aggregate ran %v, want %v", info.Strategy, exec.StrategyEncoded)
	}
	if !res.Equal(reference(tb, sel)) {
		t.Fatal("selective encoded-direct aggregate diverged from flat reference")
	}

	// Projections are outside the encoded kernel's shapes: the engine must
	// fall through, not fail.
	proj := query.Projection("R", []data.AttrID{0, 2}, query.PredGt(0, 3_800))
	res, info, err = e.Execute(proj)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy == exec.StrategyEncoded {
		t.Fatalf("projection reported the encoded strategy: %+v", info)
	}
	if !res.Equal(reference(tb, proj)) {
		t.Fatal("projection under the encoded tier diverged from flat reference")
	}
}

// TestEncodedTierDemotesBeforeSpill: a budget that the encoded forms fit
// under — but the flat data does not — is satisfied entirely by demotions.
// No spill file is written, nothing faults, and queries stay exact.
func TestEncodedTierDemotesBeforeSpill(t *testing.T) {
	const rows, segCap = 4_000, 250 // 16 segments
	full, tb := encodedEngine(t, rows, segCap, 0)
	relBytes := full.Relation().Bytes()
	full.Close()

	// Timeseries data encodes far below half its flat size; a half-size
	// budget is comfortably reachable by demotion alone.
	e, _ := encodedEngine(t, rows, segCap, relBytes/2)
	defer e.Close()
	e.EnforceBudget()
	ts := e.TierStats()
	if ts.Demotions == 0 {
		t.Fatalf("over-budget encoded tier never demoted: %+v", ts)
	}
	if ts.SpillWrites != 0 || ts.SpilledSegments != 0 {
		t.Fatalf("budget reachable by demotion still spilled: %+v", ts)
	}
	if ts.EncodedSegments == 0 {
		t.Fatalf("demotions left no encoded-resident segments: %+v", ts)
	}
	if ts.ResidentBytes > relBytes/2 {
		t.Fatalf("resident bytes %d exceed budget %d after enforcement", ts.ResidentBytes, relBytes/2)
	}
	for qi, q := range spillQueries() {
		res, _, err := e.Execute(q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if !res.Equal(reference(tb, q)) {
			t.Fatalf("query %d diverged after demotion", qi)
		}
	}
}

// TestEncodedTierSpillRoundTrip drives the full three-rung ladder with a
// 1-byte budget: demote, spill encoded, fault back through the mmap, and
// keep every query exact across repeated cycles. The spill files must also
// show the tentpole's compression: encoded on-disk bytes at most half the
// flat volume they replace (timeseries data).
func TestEncodedTierSpillRoundTrip(t *testing.T) {
	const rows, segCap = 4_000, 250
	e, tb := encodedEngine(t, rows, segCap, 1)
	defer e.Close()
	e.EnforceBudget()
	for round := 0; round < 3; round++ {
		for qi, q := range spillQueries() {
			res, _, err := e.Execute(q)
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, qi, err)
			}
			if !res.Equal(reference(tb, q)) {
				t.Fatalf("round %d query %d: encoded spill cycle diverged", round, qi)
			}
		}
		e.EnforceBudget()
	}
	ts := e.TierStats()
	if ts.SpillWrites == 0 || ts.Faults == 0 {
		t.Fatalf("tiny budget never cycled through disk: %+v", ts)
	}
	if ts.FaultedBytes == 0 {
		t.Fatalf("faults reported no I/O volume: %+v", ts)
	}
	if ts.SpilledBytes > 0 && ts.SpillFileBytes*2 > ts.SpilledBytes {
		t.Fatalf("spill files not compressed: %d on disk for %d flat bytes", ts.SpillFileBytes, ts.SpilledBytes)
	}
}

// TestEncodedTierConcurrentScansRacingEviction is the -race coverage for
// encoded-direct scans: readers run aggregates and projections (which pin
// segments at the encoded rung and read their blocks in place) while the
// main goroutine keeps demoting and spilling under a 1-byte budget and
// appending rows. Results must stay exact throughout.
func TestEncodedTierConcurrentScansRacingEviction(t *testing.T) {
	const rows, segCap, readers, iters = 4_000, 250, 4, 30
	e, tb := encodedEngine(t, rows, segCap, 1)
	defer e.Close()
	e.EnforceBudget()
	queries := spillQueries()
	expected := make([]*exec.Result, len(queries))
	for i, q := range queries {
		expected[i] = reference(tb, q)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (r + i) % len(queries)
				res, _, err := e.Execute(queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("reader %d iter %d: %w", r, i, err)
					return
				}
				if !res.Equal(expected[qi]) {
					errCh <- fmt.Errorf("reader %d iter %d: %s diverged while racing eviction", r, i, queries[qi])
					return
				}
			}
		}(r)
	}
	// a0=1000 falls outside every predicate of spillQueries, and zero
	// a1/a2 keep the unpredicated sum unchanged.
	tuple := []data.Value{1000, 0, 0, 0, 0, 0}
	for i := 0; i < 2*iters; i++ {
		e.EnforceBudget()
		if i%4 == 0 {
			if err := e.Insert([][]data.Value{tuple}); err != nil {
				t.Error(err)
				break
			}
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if ts := e.TierStats(); ts.Demotions == 0 {
		t.Fatalf("race window never demoted; test lost its teeth: %+v", ts)
	}
}

// BenchmarkScanEncoded is a selective aggregate over a sealed encoded
// segment (the oldest ~800 rows — segment 0 carries encodings; the
// symmetric newest-rows shape in BenchmarkScanResident lands in the flat
// tail). Compare with BenchmarkScanSpilled / BenchmarkScanResident in
// spill_test.go: the encoded-direct path must at least keep up.
func BenchmarkScanEncoded(b *testing.B) {
	const rows, segCap = 64_000, 4_000
	e, _ := encodedEngine(b, rows, segCap, 0)
	defer e.Close()
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredLt(0, 800))
	if _, info, err := e.Execute(q); err != nil {
		b.Fatal(err)
	} else if info.Strategy != exec.StrategyEncoded {
		b.Fatalf("warmup ran %v, want %v", info.Strategy, exec.StrategyEncoded)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanEncodedTail is the exact BenchmarkScanResident shape run on
// the encoded-tier engine: after pruning only the flat mutable tail
// survives, so the engine must decline the encoded path and match the flat
// engine's fused operators rather than pay the encoded driver's overhead.
func BenchmarkScanEncodedTail(b *testing.B) {
	const rows, segCap = 64_000, 4_000
	e, _ := encodedEngine(b, rows, segCap, 0)
	defer e.Close()
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredGt(0, data.Value(rows)-800))
	if _, info, err := e.Execute(q); err != nil {
		b.Fatal(err)
	} else if info.Strategy == exec.StrategyEncoded {
		b.Fatalf("tail-only scan claimed the encoded path: %+v", info)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanEncodedUniform is the hostile case for the encoded kernel:
// uniform (unordered) data where the predicate matches ~half the rows, so
// no block skips or folds from its header and every block pays the
// selection-vector build and gather. The branchless selection writes and
// batched block folds keep it at or under the flat engine's fused cost.
func BenchmarkScanEncodedUniform(b *testing.B) {
	const rows, segCap = 100_000, 6_250
	tb := data.Generate(data.SyntheticSchema("R", 8), rows, 2014)
	opts := DefaultOptions()
	opts.Mode = ModeFrozen
	opts.EncodedTier = true
	opts.SpillDir = b.TempDir()
	e := New(storage.BuildColumnMajorSeg(tb, segCap), opts)
	defer e.Close()
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2},
		query.PredGt(0, data.Value(float64(rows)*0.98)-1))
	if _, _, err := e.Execute(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultEncoded measures a full aggregate that pages every sealed
// segment in through the encoded spill format (mmap-served where
// available): each iteration re-evicts, then scans cold. The acceptance
// bar is BenchmarkFaultEncoded <= the flat-era faulted full scan — the
// fault now moves encoded bytes, not flat ones.
func BenchmarkFaultEncoded(b *testing.B) {
	const rows, segCap = 64_000, 4_000
	e, _ := encodedEngine(b, rows, segCap, 1)
	defer e.Close()
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
	e.EnforceBudget()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.EnforceBudget() // re-evict outside the timed region
		b.StartTimer()
	}
}
