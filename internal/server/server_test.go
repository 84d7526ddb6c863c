package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// engineBackend serves one core.Engine as table "R" through TableBackend
// and keeps the engine at hand, so tests can mutate it directly.
type engineBackend struct {
	TableBackend
	e *core.Engine
}

func newEngineBackend(e *core.Engine) *engineBackend {
	return &engineBackend{TableBackend: TableBackend{Name: "R", T: e}, e: e}
}

func newTestBackend(t testing.TB, rows int) *engineBackend {
	t.Helper()
	tb := data.Generate(data.SyntheticSchema("R", 8), rows, 5)
	return newEngineBackend(core.New(storage.BuildColumnMajor(tb), core.DefaultOptions()))
}

// TestTableBackendRejectsOtherTables: a TableBackend answers for its own
// name only — every verb fails for any other table, joins included.
func TestTableBackendRejectsOtherTables(t *testing.T) {
	b := newTestBackend(t, 100).TableBackend
	own := testQuery(0)
	other := query.Aggregation("S", expr.AggMax, []data.AttrID{0}, nil)
	join := testQuery(1)
	join.Joins = []query.Join{query.JoinOn("S", 0, 0, 8)}
	if _, _, err := b.Exec(own); err != nil {
		t.Fatalf("Exec(R): %v", err)
	}
	if _, err := b.Version("R"); err != nil {
		t.Fatalf("Version(R): %v", err)
	}
	for _, q := range []*query.Query{other, join} {
		if _, _, err := b.Exec(q); err == nil {
			t.Errorf("Exec(%v) succeeded", q)
		}
		if _, err := b.Fingerprint(q); err == nil {
			t.Errorf("Fingerprint(%v) succeeded", q)
		}
		if _, _, err := b.ExecDelta(q, nil); err == nil {
			t.Errorf("ExecDelta(%v) succeeded", q)
		}
	}
	if _, err := b.Version("S"); err == nil {
		t.Error("Version(S) succeeded")
	}
}

func testQuery(attr int) *query.Query {
	return query.Aggregation("R", expr.AggMax, []data.AttrID{attr}, query.PredLt((attr+1)%8, 0))
}

func TestCacheHitAndStats(t *testing.T) {
	b := newTestBackend(t, 2_000)
	s := New(b, Config{Workers: 2})
	defer s.Close()

	q := testQuery(0)
	r1, i1, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if i1.CacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	r2, i2, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !i2.CacheHit {
		t.Fatal("second execution missed the cache")
	}
	if !r1.Equal(r2) {
		t.Fatal("cached result differs from executed result")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.Executed != 1 || st.Submitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVersionBumpInvalidates(t *testing.T) {
	b := newTestBackend(t, 1_000)
	s := New(b, Config{Workers: 2})
	defer s.Close()

	q := query.Aggregation("R", expr.AggCount, []data.AttrID{0}, nil)
	r1, _, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.At(0, 0) != 1_000 {
		t.Fatalf("count = %d", r1.At(0, 0))
	}

	// Insert: the relation version bumps, so the cached count is stranded
	// under the old key and the next query recomputes.
	if err := b.e.Insert([][]data.Value{{1, 2, 3, 4, 5, 6, 7, 8}}); err != nil {
		t.Fatal(err)
	}
	r2, i2, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if i2.CacheHit {
		t.Fatal("stale cache entry served after insert")
	}
	if r2.At(0, 0) != 1_001 {
		t.Fatalf("post-insert count = %d, want 1001", r2.At(0, 0))
	}

	// A layout reorganization also bumps the version: same invalidation
	// discipline for adaptation as for data change.
	g, err := storage.Stitch(b.e.Relation(), []data.AttrID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.e.Relation().AddGroup(g); err != nil {
		t.Fatal(err)
	}
	_, i3, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if i3.CacheHit {
		t.Fatal("stale cache entry served after reorganization")
	}
	// And with no further mutation, the recomputed entry now hits.
	_, i4, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !i4.CacheHit {
		t.Fatal("fresh entry not served after recompute")
	}
}

func TestContextCancellation(t *testing.T) {
	// A backend slow enough that jobs pile up behind one worker.
	blocked := make(chan struct{})
	release := make(chan struct{})
	b := &stubBackend{
		exec: func(q *query.Query) (*exec.Result, core.ExecInfo, error) {
			close(blocked)
			<-release
			return &exec.Result{Cols: []string{"x"}, Rows: 1, Data: []data.Value{1}}, core.ExecInfo{}, nil
		},
	}
	s := New(b, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	defer func() { close(release); s.Close() }()

	// First query occupies the only worker.
	go s.Query(context.Background(), query.Projection("R", []data.AttrID{0}, nil))
	<-blocked

	// Second query sits in the queue; cancel it while queued.
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := s.Query(ctx, query.Projection("R", []data.AttrID{1}, nil))
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it enqueue
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled query did not return")
	}

	// An already-canceled context never admits.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := s.Query(ctx2, query.Projection("R", []data.AttrID{2}, nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled query: err = %v", err)
	}
	if st := s.Stats(); st.Canceled < 2 {
		t.Fatalf("Canceled = %d, want >= 2", st.Canceled)
	}
}

// stubBackend lets tests script execution behavior. Its admission
// fingerprint and its version are both derived from the digest counter, so
// bumping digest models a mutation of segments the query touches — and
// moves the version the fingerprint memo is keyed on. It never repairs.
type stubBackend struct {
	exec   func(q *query.Query) (*exec.Result, core.ExecInfo, error)
	digest atomic.Uint64
}

func (b *stubBackend) fp() core.TouchFingerprint {
	return core.TouchFingerprint{Digest: b.digest.Load() + 1, Segments: 1, MaxVersion: 1}
}

func (b *stubBackend) Exec(q *query.Query) (*exec.Result, core.ExecInfo, error) { return b.exec(q) }
func (b *stubBackend) Fingerprint(*query.Query) (core.TouchFingerprint, error) {
	return b.fp(), nil
}
func (b *stubBackend) ExecDelta(*query.Query, map[int]uint64) (*core.DeltaScan, bool, error) {
	return nil, false, nil
}
func (b *stubBackend) Version(string) (uint64, error) { return b.digest.Load(), nil }

// TestMidFlightMutationRepublishes is the regression test for the old
// whole-relation re-check, which discarded the result on *any* version
// bump. With fingerprint keying, a mutation of candidate segments between
// admission and execution republishes the result under the execution-time
// fingerprint — the state it is actually consistent with — so the very next
// identical query hits instead of re-executing.
func TestMidFlightMutationRepublishes(t *testing.T) {
	b := &stubBackend{}
	b.exec = func(q *query.Query) (*exec.Result, core.ExecInfo, error) {
		// A mutation of a candidate segment lands mid-execution: the
		// execution observes the post-mutation fingerprint.
		b.digest.Add(1)
		return &exec.Result{Cols: []string{"x"}, Rows: 1, Data: []data.Value{42}},
			core.ExecInfo{Fingerprint: b.fp()}, nil
	}
	s := New(b, Config{Workers: 1})
	defer s.Close()

	q := query.Projection("R", []data.AttrID{0}, nil)
	if _, _, err := s.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if n := s.CacheSize(); n != 1 {
		t.Fatalf("mid-flight-mutation result not republished (%d entries)", n)
	}
	if st := s.Stats(); st.Republished != 1 || st.Uncacheable != 0 {
		t.Fatalf("stats = %+v, want Republished=1 Uncacheable=0", st)
	}

	// The republished entry is keyed under the state the execution saw —
	// which is the current state — so the repeat is a hit.
	b.exec = func(q *query.Query) (*exec.Result, core.ExecInfo, error) {
		t.Error("repeat query re-executed instead of hitting the republished entry")
		return nil, core.ExecInfo{}, nil
	}
	_, info, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatal("repeat query missed the republished entry")
	}
}

// TestNoFingerprintNotCached: a backend that cannot tie a result to a
// relation state (zero fingerprint) gets the result through to the caller
// but never into the cache.
func TestNoFingerprintNotCached(t *testing.T) {
	b := &stubBackend{}
	b.exec = func(q *query.Query) (*exec.Result, core.ExecInfo, error) {
		return &exec.Result{Cols: []string{"x"}, Rows: 1, Data: []data.Value{42}}, core.ExecInfo{}, nil
	}
	s := New(b, Config{Workers: 1})
	defer s.Close()

	q := query.Projection("R", []data.AttrID{0}, nil)
	if _, _, err := s.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if n := s.CacheSize(); n != 0 {
		t.Fatalf("fingerprint-less result was cached (%d entries)", n)
	}
	if st := s.Stats(); st.Uncacheable != 1 || st.Republished != 0 {
		t.Fatalf("stats = %+v, want Uncacheable=1 Republished=0", st)
	}
}

func TestClose(t *testing.T) {
	b := newTestBackend(t, 100)
	s := New(b, Config{Workers: 2})
	// Populate the cache so the post-Close query would hit if it were
	// consulted: Close is a fence, cache hits included.
	if _, _, err := s.Query(context.Background(), testQuery(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, _, err := s.Query(context.Background(), testQuery(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("query on closed server: err = %v, want ErrClosed", err)
	}
}

func TestCacheDisabled(t *testing.T) {
	b := newTestBackend(t, 500)
	s := New(b, Config{Workers: 2, CacheEntries: -1})
	defer s.Close()
	q := testQuery(3)
	for i := 0; i < 3; i++ {
		if _, info, err := s.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		} else if info.CacheHit {
			t.Fatal("cache hit with caching disabled")
		}
	}
	if st := s.Stats(); st.Executed != 3 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConcurrentClients is the serving-layer stress test: many clients,
// mixed hit/miss traffic, a concurrent writer bumping versions. Run under
// -race in CI.
func TestConcurrentClients(t *testing.T) {
	b := newTestBackend(t, 2_000)
	s := New(b, Config{Workers: 4, QueueDepth: 8})
	defer s.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 9)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, _, err := s.Query(context.Background(), testQuery((c+i)%8)); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := b.e.Insert([][]data.Value{{1, 2, 3, 4, 5, 6, 7, 8}}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := s.Stats()
	if st.Submitted != 400 {
		t.Fatalf("Submitted = %d, want 400", st.Submitted)
	}
	if st.Executed+st.CacheHits < 400 {
		t.Fatalf("Executed+CacheHits = %d, want >= 400", st.Executed+st.CacheHits)
	}
}

// newSegmentedBackend builds an engine over append-ordered data (attribute
// 0 == row position) with small segments, so zone maps give queries over an
// a0 range a candidate set of exactly the segments holding that range.
func newSegmentedBackend(t testing.TB, rows, segCap int, opts core.Options) *engineBackend {
	t.Helper()
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 4), rows, 99)
	return newEngineBackend(core.New(storage.BuildColumnMajorSeg(tb, segCap), opts))
}

// frozenOptions disables adaptation so no background reorganization can
// bump segment versions underneath the precision assertions.
func frozenOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Mode = core.ModeFrozen
	return opts
}

// coldSegQuery touches only segment 0: a0 < segCap prunes every later
// segment (their a0 minimum is >= segCap).
func coldSegQuery(segCap int) *query.Query {
	return query.Aggregation("R", expr.AggSum, []data.AttrID{1}, query.PredLt(0, data.Value(segCap)))
}

// TestTailAppendInvalidatesPrecisely: after a tail append, cached entries
// for queries whose candidate segments exclude the tail keep hitting, while
// full scans miss — invalidation is per touched-segment set, not per
// relation.
func TestTailAppendInvalidatesPrecisely(t *testing.T) {
	const segCap, segs = 256, 8
	b := newSegmentedBackend(t, segs*segCap, segCap, frozenOptions())
	s := New(b, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	cold := coldSegQuery(segCap)
	full := query.Aggregation("R", expr.AggCount, []data.AttrID{1}, nil)

	coldRes, info, err := s.Query(ctx, cold)
	if err != nil || info.CacheHit {
		t.Fatalf("first cold query: err=%v hit=%v", err, info.CacheHit)
	}
	if got := len(info.SegmentsTouched); got != 1 || info.SegmentsTouched[0] != 0 {
		t.Fatalf("cold query touched %v, want [0]", info.SegmentsTouched)
	}
	if _, _, err := s.Query(ctx, full); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		// Append behind the cold query's predicate: only the tail mutates.
		if err := b.e.Insert([][]data.Value{{data.Value(10_000_000 + i), 1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
		got, infoC, err := s.Query(ctx, cold)
		if err != nil {
			t.Fatal(err)
		}
		if !infoC.CacheHit {
			t.Fatalf("append %d: cold-segment query was invalidated by a tail append", i)
		}
		if !got.Equal(coldRes) {
			t.Fatalf("append %d: cold-segment result changed", i)
		}
		resF, infoF, err := s.Query(ctx, full)
		if err != nil {
			t.Fatal(err)
		}
		if infoF.CacheHit {
			t.Fatalf("append %d: full scan served a stale cached count", i)
		}
		if want := data.Value(segs*segCap + i + 1); resF.At(0, 0) != want {
			t.Fatalf("append %d: count = %d, want %d", i, resF.At(0, 0), want)
		}
	}

	st := s.Stats()
	// Cold query: 1 miss then 10 hits. Full scan: 11 misses.
	if st.CacheHits != 10 {
		t.Fatalf("CacheHits = %d, want 10 (stats %+v)", st.CacheHits, st)
	}
	if st.CacheMisses != 12 {
		t.Fatalf("CacheMisses = %d, want 12 (stats %+v)", st.CacheMisses, st)
	}
}

// TestReorgInvalidatesPrecisely: reorganizing one segment invalidates only
// queries whose candidate set includes it.
func TestReorgInvalidatesPrecisely(t *testing.T) {
	const segCap, segs = 256, 8
	b := newSegmentedBackend(t, segs*segCap, segCap, frozenOptions())
	s := New(b, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	cold := coldSegQuery(segCap)
	// hot touches only segment 6: segCap*6 <= a0 < segCap*7.
	hot := query.Aggregation("R", expr.AggSum, []data.AttrID{1},
		query.ConjLtGt(0, data.Value(7*segCap), 0, data.Value(6*segCap-1)))

	if _, info, err := s.Query(ctx, cold); err != nil || info.CacheHit {
		t.Fatalf("cold: err=%v hit=%v", err, info.CacheHit)
	}
	_, info, err := s.Query(ctx, hot)
	if err != nil {
		t.Fatal(err)
	}
	if got := info.SegmentsTouched; len(got) != 1 || got[0] != 6 {
		t.Fatalf("hot query touched %v, want [6]", got)
	}

	// Reorganize segment 6 only (a segment-local group add, as incremental
	// adaptation does). No queries are in flight: direct mutation is safe.
	seg := b.e.Relation().Segments[6]
	g, err := storage.StitchSeg(seg, []data.AttrID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.AddGroup(g); err != nil {
		t.Fatal(err)
	}

	if _, info, err := s.Query(ctx, cold); err != nil || !info.CacheHit {
		t.Fatalf("cold query was invalidated by a reorg of a segment it never reads (err=%v hit=%v)", err, info.CacheHit)
	}
	if _, info, err := s.Query(ctx, hot); err != nil || info.CacheHit {
		t.Fatalf("hot query served stale result across its segment's reorg (err=%v hit=%v)", err, info.CacheHit)
	}
	// Recomputed entry hits again.
	if _, info, err := s.Query(ctx, hot); err != nil || !info.CacheHit {
		t.Fatalf("recomputed hot entry did not hit (err=%v hit=%v)", err, info.CacheHit)
	}
}

// TestSpillCycleInvalidatesNothing: evicting and faulting segments under a
// memory budget changes no fingerprint — cached entries keep hitting.
func TestSpillCycleInvalidatesNothing(t *testing.T) {
	const segCap, segs = 256, 8
	opts := frozenOptions()
	opts.MemoryBudgetBytes = 1
	opts.SpillDir = t.TempDir()
	b := newSegmentedBackend(t, segs*segCap, segCap, opts)
	defer b.e.Close()
	s := New(b, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	cold := coldSegQuery(segCap)
	full := query.Aggregation("R", expr.AggMax, []data.AttrID{1}, nil)
	for _, q := range []*query.Query{cold, full} {
		if _, _, err := s.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	b.e.EnforceBudget()
	if ts := b.e.TierStats(); ts.SpilledSegments == 0 {
		t.Fatalf("budget spilled nothing: %+v", ts)
	}
	for _, q := range []*query.Query{cold, full} {
		if _, info, err := s.Query(ctx, q); err != nil || !info.CacheHit {
			t.Fatalf("spill cycle invalidated a cached result (err=%v hit=%v)", err, info.CacheHit)
		}
	}
}

// TestServeStressSegmentPrecise mixes appends, adaptive reorganizations,
// budget evictions and cached reads under -race: the fingerprint path
// (admission pruning + publish) must stay coherent with concurrent
// mutations and residency changes.
func TestServeStressSegmentPrecise(t *testing.T) {
	const segCap, segs = 128, 8
	opts := core.DefaultOptions() // adaptive: reorgs fire as patterns repeat
	opts.MemoryBudgetBytes = 64 * 1024
	opts.SpillDir = t.TempDir()
	opts.Parallelism = 2
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
				switch (c + i) % 3 {
				case 0:
					q = coldSegQuery(segCap)
				case 1:
					q = query.Aggregation("R", expr.AggMax, []data.AttrID{(c + i) % 4}, nil)
				default:
					q = query.Projection("R", []data.AttrID{1, 2},
						query.PredLt(0, data.Value((i%segs)*segCap)))
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
		for i := 0; i < 30; i++ {
			if err := b.e.Insert([][]data.Value{{data.Value(1_000_000 + i), 1, 2, 3}}); err != nil {
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
	if st := s.Stats(); st.Submitted != 360 || st.Executed+st.CacheHits < 360 {
		t.Fatalf("stats = %+v", st)
	}
}
