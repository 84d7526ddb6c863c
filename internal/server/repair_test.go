package server

import (
	"context"
	"sync"
	"testing"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
)

// TestDeltaRepairTailAppend is the serving-layer contract of partial-result
// reuse: a repeated full-relation aggregate over a tail-append workload is
// answered by rescanning only the tail segment — O(1 segment) per repair,
// not O(relation) — with results identical to full recomputation.
func TestDeltaRepairTailAppend(t *testing.T) {
	const segCap, segs, appends = 256, 8, 10
	b := newSegmentedBackend(t, segs*segCap, segCap, frozenOptions())
	s := New(b, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)

	// Cold miss: seeds the partials payload via a full partial scan — not
	// yet a repair.
	res, info, err := s.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheHit || info.RepairedSegments != 0 {
		t.Fatalf("seed query: hit=%v repaired=%d", info.CacheHit, info.RepairedSegments)
	}
	if st := s.Stats(); st.Repaired != 0 {
		t.Fatalf("seed counted as repair: %+v", st)
	}

	want := res.At(0, 0)
	for i := 0; i < appends; i++ {
		if err := b.e.Insert([][]data.Value{{data.Value(10_000_000 + i), 3, 4, 5}}); err != nil {
			t.Fatal(err)
		}
		want += 3 // sum(a1) grows by the appended a1

		res, info, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if info.CacheHit {
			t.Fatalf("append %d: stale hit after a candidate mutation", i)
		}
		if info.Strategy != exec.StrategyDelta {
			t.Fatalf("append %d: strategy %v, want %v", i, info.Strategy, exec.StrategyDelta)
		}
		// The changed-segment count, not the relation segment count: only
		// the (possibly freshly opened) tail moved.
		if info.RepairedSegments != 1 {
			t.Fatalf("append %d: RepairedSegments = %d, want 1 (touched %v)",
				i, info.RepairedSegments, info.SegmentsTouched)
		}
		if got := res.At(0, 0); got != want {
			t.Fatalf("append %d: sum(a1) = %d, want %d", i, got, want)
		}
		// A repeat without further mutation is an exact hit on the
		// republished result — and a hit rescanned nothing, so it must
		// not echo the stored entry's repair counter.
		if _, info, err := s.Query(ctx, q); err != nil || !info.CacheHit {
			t.Fatalf("append %d: repaired result did not publish (err=%v hit=%v)", i, err, info.CacheHit)
		} else if info.RepairedSegments != 0 {
			t.Fatalf("append %d: exact hit reports RepairedSegments=%d, want 0", i, info.RepairedSegments)
		}
	}

	st := s.Stats()
	if st.Repaired != appends {
		t.Fatalf("Repaired = %d, want %d (stats %+v)", st.Repaired, appends, st)
	}
	if st.RepairedSegments != appends {
		t.Fatalf("RepairedSegments = %d, want %d (one tail rescan per append)", st.RepairedSegments, appends)
	}
}

// TestDeltaRepairGrouped extends the O(changed segments) repair contract to
// GROUP BY: after each tail append the grouped aggregate is answered by
// merging the cached per-segment group maps with a rescan of only the tail
// segment, and every repaired result equals a cache-free full scan.
func TestDeltaRepairGrouped(t *testing.T) {
	const segCap, segs, appends = 256, 8, 8
	b := newSegmentedBackend(t, segs*segCap, segCap, frozenOptions())
	s := New(b, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	q := query.GroupedAggregation("R", expr.AggSum, []data.AttrID{1, 2}, []data.AttrID{3}, nil)

	// Cold miss seeds the grouped partials payload.
	if _, info, err := s.Query(ctx, q); err != nil || info.CacheHit || info.RepairedSegments != 0 {
		t.Fatalf("seed: err=%v info=%+v", err, info)
	}
	for i := 0; i < appends; i++ {
		// Recycle a small key range so appends both extend groups opened by
		// earlier appends and (on first sight of a key) create fresh ones.
		if err := b.e.Insert([][]data.Value{{data.Value(60_000_000 + i), 7, 11, data.Value(i % 3)}}); err != nil {
			t.Fatal(err)
		}
		res, info, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if info.CacheHit || info.Strategy != exec.StrategyDelta {
			t.Fatalf("append %d: hit=%v strategy=%v, want delta repair", i, info.CacheHit, info.Strategy)
		}
		if info.RepairedSegments != 1 {
			t.Fatalf("append %d: RepairedSegments = %d, want 1 (touched %v)",
				i, info.RepairedSegments, info.SegmentsTouched)
		}
		want, _, err := b.e.Execute(q) // cache-free full scan of the mutated state
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(want) {
			t.Fatalf("append %d: repaired groups diverged:\n got %d rows %v\nwant %d rows %v",
				i, res.Rows, res.Data, want.Rows, want.Data)
		}
	}
	st := s.Stats()
	if st.Repaired != appends || st.RepairedSegments != appends {
		t.Fatalf("Repaired = %d, RepairedSegments = %d, want %d each (stats %+v)",
			st.Repaired, st.RepairedSegments, appends, st)
	}
}

// decliningBackend declines every delta scan, as a backend that cannot
// scan segment subsets would; everything else is the engine's.
type decliningBackend struct{ *engineBackend }

func (decliningBackend) ExecDelta(*query.Query, map[int]uint64) (*core.DeltaScan, bool, error) {
	return nil, false, nil
}

// TestDecliningBackendAnswersThroughExec: when the backend declines every
// delta scan, repeated repairable aggregates over a tail-append workload
// fall through to Exec — correct results, and no query counts as repaired.
func TestDecliningBackendAnswersThroughExec(t *testing.T) {
	const segCap, segs, appends = 256, 4, 5
	b := newSegmentedBackend(t, segs*segCap, segCap, frozenOptions())
	s := New(decliningBackend{b}, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	queries := []*query.Query{
		query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil),
		query.GroupedAggregation("R", expr.AggSum, []data.AttrID{1}, []data.AttrID{3}, nil),
	}
	for i := 0; i <= appends; i++ {
		if i > 0 {
			if err := b.e.Insert([][]data.Value{{data.Value(70_000_000 + i), 7, 11, data.Value(i % 2)}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			res, info, err := s.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if info.CacheHit || info.Strategy == exec.StrategyDelta {
				t.Fatalf("round %d %v: hit=%v strategy=%v, want a full execution", i, q, info.CacheHit, info.Strategy)
			}
			want, _, err := b.e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Equal(want) {
				t.Fatalf("round %d %v: got %v, want %v", i, q, res.Data, want.Data)
			}
		}
	}
	st := s.Stats()
	if st.Repaired != 0 || st.RepairedSegments != 0 {
		t.Fatalf("declining backend counted repairs: %+v", st)
	}
	if want := uint64((appends + 1) * len(queries)); st.Executed != want || st.CacheMisses != want {
		t.Fatalf("Executed = %d, CacheMisses = %d, want %d each (stats %+v)", st.Executed, st.CacheMisses, want, st)
	}
}

// TestDeltaRepairSelectiveQueries: a cold-segment aggregate never needs
// repair across tail appends (its fingerprint is append-invariant — exact
// hits), while a mid-range aggregate repairs only when its own segments
// change.
func TestDeltaRepairSelective(t *testing.T) {
	const segCap, segs = 256, 8
	b := newSegmentedBackend(t, segs*segCap, segCap, frozenOptions())
	s := New(b, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	cold := coldSegQuery(segCap)
	if _, _, err := s.Query(ctx, cold); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := b.e.Insert([][]data.Value{{data.Value(20_000_000 + i), 1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
		if _, info, err := s.Query(ctx, cold); err != nil || !info.CacheHit {
			t.Fatalf("append %d: cold query should exact-hit, err=%v hit=%v", i, err, info.CacheHit)
		}
	}
	if st := s.Stats(); st.Repaired != 0 {
		t.Fatalf("cold query repaired instead of exact-hitting: %+v", st)
	}
}

// TestPartialBudgetRejectsOversizedPayload: a partials budget smaller than
// one payload disables reuse gracefully — every miss re-seeds via a full
// partial scan, nothing repairs, results stay correct.
func TestPartialBudgetRejectsOversizedPayload(t *testing.T) {
	const segCap, segs = 128, 4
	b := newSegmentedBackend(t, segs*segCap, segCap, frozenOptions())
	s := New(b, Config{Workers: 1, PartialCacheBytes: 1})
	defer s.Close()
	ctx := context.Background()

	q := query.Aggregation("R", expr.AggCount, []data.AttrID{0}, nil)
	for i := 0; i < 3; i++ {
		res, _, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := data.Value(segs*segCap + i); res.At(0, 0) != want {
			t.Fatalf("round %d: count = %d, want %d", i, res.At(0, 0), want)
		}
		if err := b.e.Insert([][]data.Value{{data.Value(30_000_000 + i), 1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Repaired != 0 {
		t.Fatalf("oversized payload was cached and repaired from: %+v", st)
	}
}

// TestFingerprintMemo: repeat admissions at an unchanged relation version
// reuse the memoized fingerprint; any mutation stops the memo from
// matching (the version can never recur).
func TestFingerprintMemo(t *testing.T) {
	b := newSegmentedBackend(t, 1024, 256, frozenOptions())
	s := New(b, Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()

	q := coldSegQuery(256)
	if _, _, err := s.Query(ctx, q); err != nil { // computes + memoizes
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // memo hits at the same version
		if _, _, err := s.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.MemoHits != 3 {
		t.Fatalf("MemoHits = %d, want 3 (stats %+v)", st.MemoHits, st)
	}
	if err := b.e.Insert([][]data.Value{{40_000_000, 1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	// New version: the next admission recomputes (no memo hit), then
	// repeats hit the memo again.
	if _, _, err := s.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MemoHits != 3 {
		t.Fatalf("stale memo served across a version bump: %+v", st)
	}
	if _, _, err := s.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MemoHits != 4 {
		t.Fatalf("MemoHits = %d, want 4 after recompute (stats %+v)", st.MemoHits, st)
	}
}

// TestDeltaRepairStress mixes repairable aggregate traffic with concurrent
// appends and tiered-storage evictions under -race: the repair path — prior
// payload reads, delta diffs under the engine lock, payload republish —
// must stay coherent while segments mutate, spill and fault underneath it.
func TestDeltaRepairStress(t *testing.T) {
	const segCap, segs = 128, 8
	opts := core.DefaultOptions() // adaptive: repairs interleave with reorg fallbacks
	opts.MemoryBudgetBytes = 64 * 1024
	opts.SpillDir = t.TempDir()
	b := newSegmentedBackend(t, segs*segCap, segCap, opts)
	defer b.e.Close()
	s := New(b, Config{Workers: 4, QueueDepth: 16})
	defer s.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				var q *query.Query
				switch (c + i) % 4 {
				case 0:
					q = query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
				case 1:
					q = query.Aggregation("R", expr.AggCount, []data.AttrID{(c + i) % 4}, nil)
				case 2:
					q = query.GroupedAggregation("R", expr.AggSum, []data.AttrID{1}, []data.AttrID{3}, nil)
				default:
					q = coldSegQuery(segCap)
				}
				if _, _, err := s.Query(context.Background(), q); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := b.e.Insert([][]data.Value{{data.Value(50_000_000 + i), 1, 2, 3}}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			b.e.EnforceBudget()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := s.Stats()
	if st.Submitted != 360 || st.Executed+st.CacheHits < 360 {
		t.Fatalf("stats = %+v", st)
	}

	// Quiesced correctness: the repaired count must equal reality.
	res, _, err := s.Query(context.Background(), query.Aggregation("R", expr.AggCount, []data.AttrID{0}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := data.Value(segs*segCap + 40); res.At(0, 0) != want {
		t.Fatalf("post-stress count = %d, want %d", res.At(0, 0), want)
	}
}

// TestDeltaRepairTailOnlyWindow: a window whose only candidate is the
// partial tail reuses no cached partial, but each append is folded from the
// tail's suffix into the cached one — a repair, counted as one repaired
// segment, with results equal to a full scan.
func TestDeltaRepairTailOnlyWindow(t *testing.T) {
	const segCap, segs, appends = 256, 8, 4
	b := newSegmentedBackend(t, segs*segCap+100, segCap, frozenOptions())
	s := New(b, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, query.PredGt(0, segs*segCap-1))
	if _, info, err := s.Query(ctx, q); err != nil || info.RepairedSegments != 0 {
		t.Fatalf("seed query: err=%v repaired=%d", err, info.RepairedSegments)
	}
	for i := 0; i < appends; i++ {
		if err := b.e.Insert([][]data.Value{{data.Value(10_000_000 + i), 3, 4, 5}}); err != nil {
			t.Fatal(err)
		}
		res, info, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if info.Strategy != exec.StrategyDelta || info.RepairedSegments != 1 {
			t.Fatalf("append %d: strategy %v, RepairedSegments %d; want %v and 1",
				i, info.Strategy, info.RepairedSegments, exec.StrategyDelta)
		}
		want, _, err := b.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(want) {
			t.Fatalf("append %d: repaired %v, full scan %v", i, res.Data, want.Data)
		}
	}
	if st := s.Stats(); st.Repaired != appends || st.RepairedSegments != appends {
		t.Fatalf("Repaired, RepairedSegments = %d, %d; want %d, %d", st.Repaired, st.RepairedSegments, appends, appends)
	}
}
