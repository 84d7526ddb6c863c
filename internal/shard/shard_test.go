package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/server"
	"h2o/internal/storage"
)

// Shard equivalence harness: every generated query on a 2/4/8-shard router
// must match the single-engine answer over the same rows — bit-identically
// for aggregates and GROUP BY (the merge law is exact, and both sides emit
// groups key-ordered), as multisets for row shapes (SQL promises no row
// order), and as a count plus sub-multiset for limited row shapes (which
// rows survive a LIMIT is legitimately choice). The harness then keeps the
// pair in lockstep through iterated append bursts, and separately re-feeds
// repair payloads round over round the way the serving layer does.

const (
	tWidth  = 6
	tSegCap = 128
)

func tOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Mode = core.ModeFrozen
	opts.SegmentCapacity = tSegCap
	return opts
}

// tTable builds one randomized table. Two attributes are folded onto a
// small value domain so GROUP BY produces multi-row groups that actually
// merge across shards.
func tTable(rng *rand.Rand) *data.Table {
	schema := data.SyntheticSchema("R", tWidth)
	rowChoices := []int{0, 1, tSegCap, 3*tSegCap + 50, 8 * tSegCap, 11*tSegCap + 7}
	rows := rowChoices[rng.Intn(len(rowChoices))]
	var tb *data.Table
	if rng.Intn(2) == 0 {
		tb = data.GenerateTimeSeries(schema, rows, rng.Int63())
	} else {
		tb = data.Generate(schema, rows, rng.Int63())
	}
	domain := []data.Value{0, 1, 127, 128, 384, 589}
	for _, a := range []int{2, 4} {
		for r := 0; r < rows; r++ {
			v := tb.Cols[a][r]
			if v < 0 {
				v = -v
			}
			tb.Cols[a][r] = domain[int(v%data.Value(len(domain)))]
		}
	}
	return tb
}

func tPredConst(rng *rand.Rand, attr data.AttrID, rows int) data.Value {
	switch rng.Intn(5) {
	case 0:
		return data.ValueLo - 1
	case 1:
		return data.ValueHi + 1
	default:
		if attr == 0 && rng.Intn(2) == 0 {
			return data.Value(rng.Intn(rows + 1))
		}
		return data.ValueLo + data.Value(rng.Int63n(int64(data.ValueHi-data.ValueLo)))
	}
}

// tQuery generates one randomized query: flat aggregates, aggregated
// expressions, grouped aggregations (with occasional grouped limits),
// projections and arithmetic expressions, under every predicate shape
// (none, comparison, conjunction, disjunction).
func tQuery(rng *rand.Rand, rows int) *query.Query {
	attrs := query.RandomAttrs(tWidth, 1+rng.Intn(3), rng.Intn)
	cmp := func() expr.Pred {
		a := data.AttrID(rng.Intn(tWidth))
		ops := []expr.CmpOp{expr.Lt, expr.Le, expr.Gt, expr.Ge}
		return &expr.Cmp{Op: ops[rng.Intn(len(ops))], L: &expr.Col{ID: a},
			R: &expr.Const{V: tPredConst(rng, a, rows)}}
	}
	var where expr.Pred
	switch rng.Intn(4) {
	case 0: // no predicate
	case 1:
		where = cmp()
	case 2:
		where = &expr.And{Terms: []expr.Pred{cmp(), cmp()}}
	case 3:
		where = &expr.Or{L: cmp(), R: cmp()}
	}
	aggOps := []expr.AggOp{expr.AggSum, expr.AggMax, expr.AggMin, expr.AggCount, expr.AggAvg}
	var q *query.Query
	switch rng.Intn(5) {
	case 0:
		q = query.Aggregation("R", aggOps[rng.Intn(len(aggOps))], attrs, where)
		if rng.Intn(4) == 0 {
			q.Limit = 1 + rng.Intn(3)
		}
	case 1:
		q = query.AggExpression("R", attrs, where)
	case 2:
		keys := query.RandomAttrs(tWidth, 1+rng.Intn(2), rng.Intn)
		q = query.GroupedAggregation("R", aggOps[rng.Intn(len(aggOps))], attrs, keys, where)
		if rng.Intn(3) == 0 {
			q.Limit = 1 + rng.Intn(6)
		}
	case 3:
		q = query.Projection("R", attrs, where)
		if rng.Intn(3) == 0 {
			q.Limit = 1 + rng.Intn(2*tSegCap)
		}
	case 4:
		q = query.ArithExpression("R", attrs, where)
	}
	return q
}

// tTuples builds a burst of count tuples; attr 0 continues the append
// order from base so zone maps on it stay meaningful.
func tTuples(rng *rand.Rand, base, count int) [][]data.Value {
	out := make([][]data.Value, count)
	domain := []data.Value{0, 1, 127, 128, 384, 589}
	for i := range out {
		tup := make([]data.Value, tWidth)
		tup[0] = data.Value(base + i)
		for a := 1; a < tWidth; a++ {
			tup[a] = data.ValueLo + data.Value(rng.Int63n(int64(data.ValueHi-data.ValueLo)))
		}
		tup[2] = domain[rng.Intn(len(domain))]
		tup[4] = domain[rng.Intn(len(domain))]
		out[i] = tup
	}
	return out
}

// multisetEqual compares results as row multisets (same columns, same rows
// in any order).
func multisetEqual(a, b *exec.Result) bool {
	if a.Rows != b.Rows || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	w := len(a.Cols)
	count := make(map[string]int, a.Rows)
	for i := 0; i < a.Rows; i++ {
		count[fmt.Sprint(a.Data[i*w:(i+1)*w])]++
	}
	for i := 0; i < b.Rows; i++ {
		count[fmt.Sprint(b.Data[i*w:(i+1)*w])]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// subMultiset reports whether every row of sub occurs in super at least as
// often.
func subMultiset(sub, super *exec.Result) bool {
	if len(sub.Cols) != len(super.Cols) {
		return false
	}
	w := len(super.Cols)
	count := make(map[string]int, super.Rows)
	for i := 0; i < super.Rows; i++ {
		count[fmt.Sprint(super.Data[i*w:(i+1)*w])]++
	}
	for i := 0; i < sub.Rows; i++ {
		k := fmt.Sprint(sub.Data[i*w : (i+1)*w])
		count[k]--
		if count[k] < 0 {
			return false
		}
	}
	return true
}

// checkEquivalence runs q on both sides and compares under the shape's
// comparison law.
func checkEquivalence(t *testing.T, eng *core.Engine, r *Router, q *query.Query) {
	t.Helper()
	want, _, errW := eng.Execute(q)
	got, _, errG := r.Execute(q)
	if (errW != nil) != (errG != nil) {
		t.Fatalf("error divergence on %s: single=%v sharded=%v", q, errW, errG)
	}
	if errW != nil {
		return
	}
	if q.HasAggregates() || len(q.GroupBy) > 0 {
		if !got.Equal(want) {
			t.Fatalf("sharded result diverged on %s:\n got %d rows %v\nwant %d rows %v",
				q, got.Rows, got.Data, want.Rows, want.Data)
		}
		return
	}
	if q.Limit > 0 {
		// Which rows survive a LIMIT is a legitimate per-side choice; the
		// count must match and every emitted row must exist in the
		// unlimited reference.
		if got.Rows != want.Rows {
			t.Fatalf("limited row count diverged on %s: got %d, want %d", q, got.Rows, want.Rows)
		}
		qf := *q
		qf.Limit = 0
		full, _, err := eng.Execute(&qf)
		if err != nil {
			t.Fatal(err)
		}
		if !subMultiset(got, full) {
			t.Fatalf("limited rows on %s are not drawn from the reference multiset", q)
		}
		return
	}
	if !multisetEqual(got, want) {
		t.Fatalf("row multiset diverged on %s:\n got %d rows\nwant %d rows", q, got.Rows, want.Rows)
	}
}

// TestShardEquivalence: randomized queries over 2/4/8-shard routers match
// the single-engine reference, before and after iterated append bursts, in
// both frozen and fully adaptive modes (the latter exercises the router's
// decline-retry around per-shard adaptation).
func TestShardEquivalence(t *testing.T) {
	const tablesPerCase = 2
	const queriesPerTable = 10
	const burstRounds = 3
	for _, n := range []int{2, 4, 8} {
		for _, mode := range []struct {
			name string
			mode core.Mode
		}{{"frozen", core.ModeFrozen}, {"adaptive", core.ModeAdaptive}} {
			t.Run(fmt.Sprintf("shards=%d/%s", n, mode.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(20140622 + n + len(mode.name))))
				for tc := 0; tc < tablesPerCase; tc++ {
					opts := tOptions()
					opts.Mode = mode.mode
					opts.Shards = n
					tb := tTable(rng)
					eng := core.New(storage.BuildColumnMajorSeg(tb, tSegCap), opts)
					r := New(tb, opts)
					rows := tb.Rows
					for i := 0; i < queriesPerTable; i++ {
						checkEquivalence(t, eng, r, tQuery(rng, rows))
					}
					for round := 0; round < burstRounds; round++ {
						burst := tTuples(rng, rows, 1+rng.Intn(2*tSegCap))
						if err := eng.Insert(burst); err != nil {
							t.Fatal(err)
						}
						if err := r.Insert(burst); err != nil {
							t.Fatal(err)
						}
						rows += len(burst)
						for i := 0; i < queriesPerTable/2; i++ {
							checkEquivalence(t, eng, r, tQuery(rng, rows))
						}
					}
					eng.Close()
					r.Close()
				}
			})
		}
	}
}

// TestShardPlacement pins the round-robin deal: global chunk k lands on
// shard k%N, locals concatenate in order, and SegmentVersions interleaves
// back into the global space.
func TestShardPlacement(t *testing.T) {
	const n = 4
	opts := tOptions()
	opts.Shards = n
	rows := 6*tSegCap + 17 // 7 chunks, last one partial
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", tWidth), rows, 11)
	r := New(tb, opts)
	defer r.Close()
	if r.Shards() != n {
		t.Fatalf("Shards() = %d, want %d", r.Shards(), n)
	}
	wantLocal := []int{2, 2, 2, 1} // chunks 0..6 deal as 0,1,2,3,0,1,2
	for s := 0; s < n; s++ {
		e := r.EngineAt(s)
		if got := len(e.SegmentVersions()); got != wantLocal[s] {
			t.Fatalf("shard %d has %d segments, want %d", s, got, wantLocal[s])
		}
		// Chunk s (global rows [s*segCap, (s+1)*segCap)) is shard s's local
		// segment 0: attribute 0 is the global row index, so the shard's
		// min must be exactly s*segCap.
		res, _, err := e.Execute(query.Aggregation("R", expr.AggMin, []data.AttrID{0}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if want := data.Value(s * tSegCap); res.Data[0] != want {
			t.Fatalf("shard %d min(a0) = %d, want %d", s, res.Data[0], want)
		}
	}
	// The interleaved global version vector covers all 7 chunks.
	if got := len(r.SegmentVersions()); got != 7 {
		t.Fatalf("global SegmentVersions has %d entries, want 7", got)
	}
}

// TestShardDeltaRepairEquivalence re-feeds repair payloads round over
// round, as the serving layer does: QueryDelta against the prior payload's
// version vector, merge with exec.Repaired, compare bit-identically to the
// single-engine answer, carry the merged payload into the next round.
func TestShardDeltaRepairEquivalence(t *testing.T) {
	const queries = 8
	const rounds = 4
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(777 + n)))
			opts := tOptions()
			opts.Shards = n
			tb := tTable(rng)
			eng := core.New(storage.BuildColumnMajorSeg(tb, tSegCap), opts)
			defer eng.Close()
			r := New(tb, opts)
			defer r.Close()
			rows := tb.Rows

			type seeded struct {
				q     *query.Query
				prior *exec.PartialResult
			}
			var qs []seeded
			for len(qs) < queries {
				q := tQuery(rng, rows)
				// The first slots insist on GROUP BY so grouped merge is
				// always exercised.
				if len(qs) < 3 && len(q.GroupBy) == 0 {
					continue
				}
				if !exec.Repairable(q) {
					continue
				}
				ds, ok, err := r.QueryDelta(q, nil)
				if err != nil {
					t.Fatalf("seed %s: %v", q, err)
				}
				if !ok {
					t.Fatalf("seed %s: frozen router declined", q)
				}
				qs = append(qs, seeded{q, ds.Fresh})
			}

			for round := 0; round < rounds; round++ {
				burst := tTuples(rng, rows, 1+rng.Intn(tSegCap))
				if err := eng.Insert(burst); err != nil {
					t.Fatal(err)
				}
				if err := r.Insert(burst); err != nil {
					t.Fatal(err)
				}
				rows += len(burst)
				for i := range qs {
					q, prior := qs[i].q, qs[i].prior
					have := prior.Versions()
					ds, ok, err := r.QueryDelta(q, have)
					if err != nil {
						t.Fatalf("round %d delta %s: %v", round, q, err)
					}
					if !ok {
						t.Fatalf("round %d delta %s: declined", round, q)
					}
					for _, gi := range ds.Reused {
						if _, inPrior := have[gi]; !inPrior {
							t.Fatalf("%s: reused global segment %d absent from payload", q, gi)
						}
					}
					merged := exec.Repaired(prior, ds.Fresh, ds.Reused)
					want, _, err := eng.Execute(q)
					if err != nil {
						t.Fatal(err)
					}
					if got := merged.Result(); !got.Equal(want) {
						t.Fatalf("repair diverged on %s (round %d):\n got %v\nwant %v",
							q, round, got.Data, want.Data)
					}
					qs[i].prior = merged
				}
			}
		})
	}
}

// TestShardTailAppendRepairsOneShard is the headline invalidation-
// granularity property end to end through the serving layer: on an N-shard
// router, a tail append moves exactly one shard's fingerprint component,
// so the repair admission rescans exactly one (new or tail) segment —
// ServerStats.RepairedSegments advances by 1 per append.
func TestShardTailAppendRepairsOneShard(t *testing.T) {
	const n = 4
	opts := tOptions()
	opts.Shards = n
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", tWidth), 8*tSegCap, 5)
	r := New(tb, opts)
	defer r.Close()
	srv := server.New(server.TableBackend{Name: "R", T: r}, server.Config{Workers: 2})
	defer srv.Close()
	ctx := context.Background()
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 3}, nil)

	// Cold query seeds the partials payload (a full partial scan — counts
	// as neither hit nor repair).
	if _, _, err := srv.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	rows := tb.Rows
	const appends = 6
	for i := 0; i < appends; i++ {
		if err := r.Insert(tTuples(rand.New(rand.NewSource(int64(i))), rows, 1)); err != nil {
			t.Fatal(err)
		}
		rows++
		_, info, err := srv.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if info.CacheHit {
			t.Fatalf("append %d: stale cache hit after a tail append", i)
		}
		if info.RepairedSegments != 1 {
			t.Fatalf("append %d: RepairedSegments = %d, want 1 (exactly one shard rescans)",
				i, info.RepairedSegments)
		}
	}
	st := srv.Stats()
	if st.Repaired != appends {
		t.Fatalf("Repaired = %d, want %d", st.Repaired, appends)
	}
	if st.RepairedSegments != appends {
		t.Fatalf("RepairedSegments = %d, want %d (1 segment per tail append)", st.RepairedSegments, appends)
	}
}

// TestShardConcurrentStress races cross-shard queries, appends and cache
// evictions (tiny serving caches) under -race; at quiescence the serving
// stats invariant must hold and a final scatter-gather must equal a fresh
// reference scan.
func TestShardConcurrentStress(t *testing.T) {
	opts := tOptions()
	opts.Shards = 4
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", tWidth), 4*tSegCap, 3)
	r := New(tb, opts)
	defer r.Close()
	srv := server.New(server.TableBackend{Name: "R", T: r}, server.Config{
		Workers: 4, CacheShards: 1, CacheEntries: 4, PartialCacheBytes: 1 << 12, MemoEntries: 4,
	})
	defer srv.Close()
	ctx := context.Background()

	queries := []*query.Query{
		query.Aggregation("R", expr.AggSum, []data.AttrID{1}, nil),
		query.Aggregation("R", expr.AggMax, []data.AttrID{2}, query.PredGt(0, 100)),
		query.GroupedAggregation("R", expr.AggCount, []data.AttrID{3}, []data.AttrID{4}, nil),
		query.Projection("R", []data.AttrID{0, 5}, query.PredLt(0, 64)),
		query.AggExpression("R", []data.AttrID{1, 2}, nil),
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				if _, _, err := srv.Query(ctx, queries[rng.Intn(len(queries))]); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		base := tb.Rows
		for i := 0; i < 60; i++ {
			burst := tTuples(rng, base, 1+rng.Intn(8))
			if err := r.Insert(burst); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			base += len(burst)
		}
	}()
	wg.Wait()

	st := srv.Stats()
	if st.Submitted != st.CacheHits+st.CacheMisses+st.Canceled+st.Errors {
		t.Fatalf("stats invariant broken: %+v", st)
	}
	// Quiescent cross-check: the router's answer equals a direct merge-law
	// bypass — a fresh single engine over the same logical rows is not
	// reconstructible here, but re-running the same query twice must be
	// stable and the second must hit.
	res1, _, err := srv.Query(ctx, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	res2, info2, err := srv.Query(ctx, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !info2.CacheHit {
		t.Fatal("quiescent repeat did not hit")
	}
	if !res1.Equal(res2) {
		t.Fatal("quiescent repeat diverged")
	}
}

// BenchmarkShardScatterGather times one scatter-gather aggregate on a
// 4-shard router (merge-law path, all shards survive pruning). Rides the
// CI bench.json trajectory.
func BenchmarkShardScatterGather(b *testing.B) {
	opts := tOptions()
	opts.Shards = 4
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", tWidth), 32*tSegCap, 7)
	r := New(tb, opts)
	defer r.Close()
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardRepair times the serving layer's repair admission over a
// sharded backend: one tail append, one repaired query per iteration —
// the O(1 segment) path the fingerprint combination buys.
func BenchmarkShardRepair(b *testing.B) {
	opts := tOptions()
	opts.Shards = 4
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", tWidth), 32*tSegCap, 7)
	r := New(tb, opts)
	defer r.Close()
	srv := server.New(server.TableBackend{Name: "R", T: r}, server.Config{Workers: 2})
	defer srv.Close()
	ctx := context.Background()
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
	if _, _, err := srv.Query(ctx, q); err != nil {
		b.Fatal(err)
	}
	rows := tb.Rows
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Insert(tTuples(rng, rows, 1)); err != nil {
			b.Fatal(err)
		}
		rows++
		if _, _, err := srv.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShardNewestSealedSegmentStaysResident: every shard's tier manager
// ranks its own newest sealed segment last among eviction victims. Each
// shard holds 8 full segments and a budget of 4; the old-data aggregates
// read local segments 0-4 of every shard, and one insert that spans the
// shards seals each shard's full tail (local segment 7) with no reads.
// A window anchored at the end of that segment must not fault, and the
// segment must still be resident after an eviction pass.
func TestShardNewestSealedSegmentStaysResident(t *testing.T) {
	const segCap, perShard = 64, 8
	for _, n := range []int{2, 3} {
		rows := n * perShard * segCap
		tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 4), rows, 11)
		opts := tOptions()
		opts.Shards = n
		opts.SegmentCapacity = segCap
		probe := New(tb, opts)
		segBytes := probe.EngineAt(0).Relation().Segments[0].ResidentBytes()
		probe.Close()
		opts.MemoryBudgetBytes = 4 * segBytes
		opts.SpillDir = t.TempDir()
		r := New(tb, opts)

		old := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredLt(0, data.Value(5*n*segCap)))
		for i := 0; i < 20; i++ {
			if _, _, err := r.Execute(old); err != nil {
				t.Fatal(err)
			}
		}
		var tuples [][]data.Value
		for i := 0; i < (n-1)*segCap+1; i++ {
			tuples = append(tuples, []data.Value{data.Value(rows + i), 1, 2, 3})
		}
		if err := r.Insert(tuples); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n; s++ {
			e := r.EngineAt(s)
			// Local segment perShard-1 holds global chunk (perShard-1)*n+s.
			end := ((perShard-1)*n + s + 1) * segCap
			recent := query.Aggregation("R", expr.AggCount, []data.AttrID{1}, query.PredGt(0, data.Value(end-20)))
			_, info, err := e.Execute(recent)
			if err != nil {
				t.Fatal(err)
			}
			if info.SegmentsFaulted != 0 {
				t.Fatalf("N=%d shard %d: tail-anchored window faulted %d segments", n, s, info.SegmentsFaulted)
			}
			e.EnforceBudget()
			if ts := e.TierStats(); ts.SpilledSegments == 0 || ts.ResidentBytes > opts.MemoryBudgetBytes {
				t.Fatalf("N=%d shard %d: budget not enforced: %+v", n, s, ts)
			}
			if seg := e.Relation().Segments[perShard-1]; !seg.Resident() {
				t.Fatalf("N=%d shard %d: newest sealed segment is %v", n, s, seg.State())
			}
		}
		r.Close()
	}
}
