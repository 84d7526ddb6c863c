package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// spillEngine builds an engine over an append-ordered segmented relation
// with the given memory budget (0 = unlimited) and frozen adaptation, so
// tests measure the tiered-storage machinery, not layout changes.
func spillEngine(t testing.TB, rows, segCap int, budget int64) (*Engine, *data.Table) {
	t.Helper()
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), rows, 31)
	opts := DefaultOptions()
	opts.Mode = ModeFrozen
	opts.MemoryBudgetBytes = budget
	opts.SpillDir = t.TempDir()
	return New(storage.BuildColumnMajorSeg(tb, segCap), opts), tb
}

func spillQueries() []*query.Query {
	return []*query.Query{
		query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil),
		query.Aggregation("R", expr.AggMax, []data.AttrID{3}, query.PredLt(0, 900)),
		query.Aggregation("R", expr.AggMin, []data.AttrID{1, 4}, query.PredGt(0, 3_100)),
		query.Projection("R", []data.AttrID{0, 2}, query.PredGt(0, 3_800)),
		query.Projection("R", []data.AttrID{1, 3, 5}, query.PredLt(0, 150)),
	}
}

// TestSpillRoundTripResults is the acceptance gate: with budgets forcing
// ~0%, ~50% and 100% residency, every query returns results identical to
// the fully resident run, across repeated executions that keep evicting
// and faulting segments.
func TestSpillRoundTripResults(t *testing.T) {
	const rows, segCap = 4_000, 250 // 16 segments
	full, tb := spillEngine(t, rows, segCap, 0)
	relBytes := full.Relation().Bytes()

	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"residency-0pct", 1},
		{"residency-25pct", relBytes / 4},
		{"residency-50pct", relBytes / 2},
		{"residency-100pct", 4 * relBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := spillEngine(t, rows, segCap, tc.budget)
			e.EnforceBudget()
			for round := 0; round < 3; round++ {
				for qi, q := range spillQueries() {
					res, _, err := e.Execute(q)
					if err != nil {
						t.Fatalf("round %d query %d: %v", round, qi, err)
					}
					if !res.Equal(reference(tb, q)) {
						t.Fatalf("round %d query %d: spilled result diverged from resident run", round, qi)
					}
				}
				e.EnforceBudget()
			}
			ts := e.TierStats()
			if tc.budget == 1 && ts.Evictions == 0 {
				t.Fatalf("tiny budget never evicted: %+v", ts)
			}
			if tc.budget >= 4*relBytes && (ts.Evictions != 0 || ts.Faults != 0) {
				t.Fatalf("ample budget did I/O: %+v", ts)
			}
		})
	}
}

// TestTinyBudgetSpillsAllSealed pins the residency arithmetic: with a
// 1-byte budget everything but the mutable tail is spilled, and resident
// bytes shrink accordingly.
func TestTinyBudgetSpillsAllSealed(t *testing.T) {
	e, _ := spillEngine(t, 4_000, 250, 1)
	e.EnforceBudget()
	rel := e.Relation()
	ts := e.TierStats()
	if want := len(rel.Segments) - 1; ts.SpilledSegments != want {
		t.Fatalf("spilled %d segments, want %d (all but the tail)", ts.SpilledSegments, want)
	}
	if got, want := rel.ResidentBytes(), rel.Tail().Bytes(); got != want {
		t.Fatalf("resident bytes %d, want tail only %d", got, want)
	}
}

// TestScanPartialsEnforcesBudget: the unconditional partial scan faults
// every spilled candidate segment in, and — like Execute and QueryDelta —
// re-enforces the memory budget before returning, so residency is back
// within budget the moment the call ends. The disjunctive predicate keeps
// every segment a candidate and forces flat (not encoded) pins, so the
// faults really do grow the heap.
func TestScanPartialsEnforcesBudget(t *testing.T) {
	const rows, segCap = 4_000, 250 // 16 segments
	full, tb := spillEngine(t, rows, segCap, 0)
	budget := full.Relation().Bytes() / 4
	e, _ := spillEngine(t, rows, segCap, budget)
	e.EnforceBudget()
	if ts := e.TierStats(); ts.SpilledSegments == 0 {
		t.Fatalf("budget spilled nothing: %+v", ts)
	}

	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2},
		&expr.Or{L: query.PredLt(1, 0), R: query.PredGt(2, 0)})
	ds, err := e.ScanPartials(q)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Fresh.Result().Equal(reference(tb, q)) {
		t.Fatal("partial scan over spilled segments diverged from the reference")
	}
	ts := e.TierStats()
	if ts.Faults == 0 {
		t.Fatalf("scan over spilled segments faulted nothing: %+v", ts)
	}
	if ts.ResidentBytes > budget {
		t.Fatalf("ResidentBytes = %d after ScanPartials, budget %d: %+v", ts.ResidentBytes, budget, ts)
	}
}

// TestPrunedColdSegmentsNoDiskReads: a selective scan over append-ordered
// data must answer from the tail region without faulting a single spilled
// cold segment — zone maps stay resident, so pruning costs no I/O.
func TestPrunedColdSegmentsNoDiskReads(t *testing.T) {
	const rows, segCap = 4_000, 250
	e, tb := spillEngine(t, rows, segCap, 1)
	e.EnforceBudget()
	before := e.TierStats().Faults

	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredGt(0, 3_799))
	res, info, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(reference(tb, q)) {
		t.Fatal("wrong result")
	}
	if info.SegmentsPruned < 13 {
		t.Fatalf("selective scan pruned only %d segments: %+v", info.SegmentsPruned, info)
	}
	faults := e.TierStats().Faults - before
	if faults != uint64(info.SegmentsFaulted) {
		t.Fatalf("fault accounting diverged: tier says %d, ExecInfo says %d", faults, info.SegmentsFaulted)
	}
	// The hot region is the sealed segment(s) right before the tail: at
	// most 2 faults are legitimate (segment 3800/250=15.2 spans two).
	if faults > 2 {
		t.Fatalf("selective scan faulted %d cold segments in; pruning should have kept them on disk", faults)
	}
}

// TestNewestSealedSegmentStaysResident: the segment the tail just sealed
// has collected no reads, yet a tail-anchored window reads it next, so the
// tier manager ranks it last among eviction victims. Ranked by reads alone
// it would be the first segment spilled.
func TestNewestSealedSegmentStaysResident(t *testing.T) {
	const rows, segCap = 4_000, 250 // 16 segments, tail = segment 15 (full)
	full, tb := spillEngine(t, rows, segCap, 0)
	segBytes := full.Relation().Bytes() / 16
	e, _ := spillEngine(t, rows, segCap, 4*segBytes)
	defer e.Close()

	old := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredLt(0, 3_000))
	for i := 0; i < 20; i++ {
		if _, _, err := e.Execute(old); err != nil {
			t.Fatal(err)
		}
	}
	// One row seals the full tail: segment 15 is now the newest sealed
	// segment, with no reads.
	tup := []data.Value{rows, 1, 2, 3, 4, 5}
	if err := e.Insert([][]data.Value{tup}); err != nil {
		t.Fatal(err)
	}
	tb.Rows++
	for a := range tb.Cols {
		tb.Cols[a] = append(tb.Cols[a], tup[a])
	}

	recent := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredGt(0, rows-100))
	res, info, err := e.Execute(recent)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(reference(tb, recent)) {
		t.Fatal("wrong result")
	}
	if info.SegmentsFaulted != 0 {
		t.Fatalf("tail-anchored window faulted %d segments", info.SegmentsFaulted)
	}
	e.EnforceBudget()
	if ts := e.TierStats(); ts.SpilledSegments == 0 || ts.ResidentBytes > 4*segBytes {
		t.Fatalf("budget not enforced: %+v", ts)
	}
	if segs := e.Relation().Segments; !segs[15].Resident() {
		t.Fatalf("newest sealed segment 15 is %v", segs[15].State())
	}
}

// FuzzEvictionOrder draws a relation of 3-12 full segments (the last is
// the tail), a read count per segment, a budget and the encoded tier on
// or off, and checks one eviction pass against the victim order: nothing
// is pinned, so the pass must meet any budget the tail alone fits; the
// newest sealed segment goes down a rung only after every other sealed
// segment has; and among the others a segment further down the ladder
// (spilled below encoded below flat) never has more reads than one above.
func FuzzEvictionOrder(f *testing.F) {
	f.Add(uint8(0), []byte{}, uint16(1), false)
	f.Add(uint8(5), []byte{3, 0, 7, 7, 1, 0, 2, 9}, uint16(20_000), false)
	f.Add(uint8(9), []byte{5, 5, 5, 5, 0, 0, 0, 0, 1, 1, 1, 1}, uint16(40_000), true)
	f.Add(uint8(2), []byte{0, 9, 0, 9, 0}, uint16(60_000), true)
	f.Fuzz(func(t *testing.T, segsRaw uint8, reads []byte, budgetRaw uint16, encoded bool) {
		const segCap = 64
		segs := 3 + int(segsRaw)%10
		tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 4), segs*segCap, 5)
		total := storage.BuildColumnMajorSeg(tb, segCap).Bytes()
		budget := 1 + total*int64(budgetRaw)/65_536
		opts := DefaultOptions()
		opts.Mode = ModeFrozen
		opts.MemoryBudgetBytes = budget
		opts.SpillDir = t.TempDir()
		opts.EncodedTier = encoded
		e := New(storage.BuildColumnMajorSeg(tb, segCap), opts)
		defer e.Close()
		rel := e.Relation()
		for si, seg := range rel.Segments {
			if si < len(reads) {
				for r := 0; r < int(reads[si]%8); r++ {
					seg.Touch()
				}
			}
		}
		e.EnforceBudget()

		tail := rel.Tail()
		if tail.ResidentBytes() <= budget {
			if got := rel.ResidentBytes(); got > budget {
				t.Fatalf("resident %d bytes over a %d-byte budget the tail alone (%d) fits", got, budget, tail.ResidentBytes())
			}
		}
		// rung: 0 flat, 1 encoded, 2 spilled.
		rung := func(seg *storage.Segment) int {
			switch {
			case seg.State() == storage.SegResident:
				return 0
			case seg.ResidentBytes() > 0:
				return 1
			}
			return 2
		}
		newest := len(rel.Segments) - 2
		for i := 0; i < newest; i++ {
			if rung(rel.Segments[i]) < rung(rel.Segments[newest]) {
				t.Fatalf("segment %d at rung %d above the newest sealed segment %d at rung %d",
					i, rung(rel.Segments[i]), newest, rung(rel.Segments[newest]))
			}
			for j := 0; j < newest; j++ {
				a, b := rel.Segments[i], rel.Segments[j]
				if rung(a) > rung(b) && a.Reads() > b.Reads() {
					t.Fatalf("segment %d (rung %d, %d reads) went below segment %d (rung %d, %d reads)",
						i, rung(a), a.Reads(), j, rung(b), b.Reads())
				}
			}
		}
	})
}

// TestConcurrentScansRacingEviction is the -race coverage for the tiered
// layer: readers hammer hot and cold queries (faulting segments in) while
// the main goroutine keeps enforcing a tiny budget (evicting them) and
// appending rows. Results must stay exact throughout.
func TestConcurrentScansRacingEviction(t *testing.T) {
	const rows, segCap, readers, iters = 3_000, 250, 4, 40
	e, tb := spillEngine(t, rows, segCap, 1)
	e.EnforceBudget()

	queries := []*query.Query{
		query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil),
		query.Aggregation("R", expr.AggMax, []data.AttrID{3}, query.PredLt(0, 700)),
		query.Aggregation("R", expr.AggMin, []data.AttrID{1}, query.PredGt(0, 2_500)),
	}
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
					errCh <- fmt.Errorf("reader %d iter %d: result diverged while racing eviction", r, i)
					return
				}
			}
		}(r)
	}
	// Keep evicting what the readers fault in, and grow the relation so
	// tail seals make fresh eviction candidates mid-race.
	// a0=1000 falls outside both predicates, and zero a1/a2 keep the
	// unpredicated sum unchanged, so the expected results stay valid.
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
	if e.TierStats().Evictions == 0 {
		t.Fatal("race window never evicted; test lost its teeth")
	}
}

// TestCorruptSpillFileSurfacesCleanError: a bit-flipped segment file must
// turn into a query error, not a panic or silent wrong result.
func TestCorruptSpillFileSurfacesCleanError(t *testing.T) {
	const rows, segCap = 2_000, 250
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), rows, 31)
	opts := DefaultOptions()
	opts.Mode = ModeFrozen
	opts.MemoryBudgetBytes = 1
	opts.SpillDir = t.TempDir()
	e := New(storage.BuildColumnMajorSeg(tb, segCap), opts)
	e.EnforceBudget()
	if e.TierStats().SpilledSegments == 0 {
		t.Fatal("nothing spilled")
	}

	// Corrupt every spill file's data section.
	files, err := filepath.Glob(filepath.Join(opts.SpillDir, "*.h2oseg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spill files found: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xFF
		if err := os.WriteFile(f, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, nil)
	if _, _, err := e.Execute(q); err == nil {
		t.Fatal("scan over corrupted spill files must fail cleanly")
	}
}

// TestEvictionFreesHeapMemory pins the larger-than-memory promise itself:
// spilling the sealed segments of a budgeted engine must release real heap
// bytes, not just zero the accounting. Engines are built from slicing
// constructors whose segments share one backing array — the tier manager
// compacts at setup precisely so this test can pass.
func TestEvictionFreesHeapMemory(t *testing.T) {
	const rows, segCap = 160_000, 10_000 // ~7.7 MB of segment data
	e, _ := spillEngine(t, rows, segCap, 1)
	relBytes := e.Relation().Bytes()

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	e.EnforceBudget()
	after := heap()

	if e.TierStats().SpilledSegments == 0 {
		t.Fatal("nothing spilled")
	}
	freed := int64(before) - int64(after)
	if freed < relBytes/2 {
		t.Fatalf("eviction freed %d bytes of a %d-byte relation; spilling is not releasing memory", freed, relBytes)
	}
}

// TestBrokenSpillDirDegradesGracefully: an unusable spill directory must
// not fail engine construction or queries — eviction is skipped (the
// engine just stays fully resident) and SpillErrors counts the failures.
func TestBrokenSpillDirDegradesGracefully(t *testing.T) {
	const rows, segCap = 2_000, 250
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), rows, 31)
	// A regular file where the spill dir should be: MkdirAll must fail.
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Mode = ModeFrozen
	opts.MemoryBudgetBytes = 1
	opts.SpillDir = blocker
	e := New(storage.BuildColumnMajorSeg(tb, segCap), opts)
	e.EnforceBudget()
	ts := e.TierStats()
	if ts.SpillErrors == 0 {
		t.Fatalf("broken spill dir not surfaced: %+v", ts)
	}
	if ts.SpilledSegments != 0 {
		t.Fatalf("segments spilled without a working store: %+v", ts)
	}
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, nil)
	res, _, err := e.Execute(q)
	if err != nil {
		t.Fatalf("resident queries must keep working: %v", err)
	}
	if !res.Equal(reference(tb, q)) {
		t.Fatal("wrong result")
	}
}

// TestCloseRemovesSpillFiles: Engine.Close deletes the relation's segment
// files from the spill directory.
func TestCloseRemovesSpillFiles(t *testing.T) {
	e, _ := spillEngine(t, 2_000, 250, 1)
	e.EnforceBudget()
	dir := e.opts.SpillDir
	files, err := filepath.Glob(filepath.Join(dir, "*.h2oseg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("expected spill files, got %v (err %v)", files, err)
	}
	e.Close()
	files, _ = filepath.Glob(filepath.Join(dir, "*.h2oseg"))
	if len(files) != 0 {
		t.Fatalf("Close left spill files behind: %v", files)
	}
}

// TestPageInDoesNotBumpVersion guards the result-cache contract: a full
// spill/fault cycle leaves the relation version untouched, so cached
// results keyed on it stay valid (no cache poisoning by residency noise).
func TestPageInDoesNotBumpVersion(t *testing.T) {
	e, tb := spillEngine(t, 2_000, 250, 1)
	v0 := e.Version()
	e.EnforceBudget()
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
	res, info, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if info.SegmentsFaulted == 0 {
		t.Fatalf("full scan over a spilled relation faulted nothing: %+v", info)
	}
	if !res.Equal(reference(tb, q)) {
		t.Fatal("wrong result")
	}
	if e.Version() != v0 {
		t.Fatalf("version moved %d -> %d across spill/fault; residency must not invalidate caches", v0, e.Version())
	}
}

// BenchmarkScanSpilled measures the acceptance benchmark: a selective scan
// over append-ordered data with nearly everything spilled. Zone-map
// pruning keeps cold segments on disk, so per-iteration faults stay at
// zero after the first touch of the hot region.
func BenchmarkScanSpilled(b *testing.B) {
	const rows, segCap = 64_000, 4_000
	e, _ := spillEngine(b, rows, segCap, 1)
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredGt(0, data.Value(rows)-800))
	if _, _, err := e.Execute(q); err != nil { // warm the hot region
		b.Fatal(err)
	}
	start := e.TierStats().Faults
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d := e.TierStats().Faults - start; d != 0 {
		b.Fatalf("pruned cold segments incurred %d disk reads; want zero", d)
	}
}

// BenchmarkScanResident is the same scan with no budget, for comparing the
// pure overhead of the pin/release discipline.
func BenchmarkScanResident(b *testing.B) {
	const rows, segCap = 64_000, 4_000
	e, _ := spillEngine(b, rows, segCap, 0)
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredGt(0, data.Value(rows)-800))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}
