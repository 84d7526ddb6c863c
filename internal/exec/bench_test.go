package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

const benchRows = 100_000

func benchFixture(b *testing.B, attrs int) (*data.Table, *storage.Relation, *storage.Relation) {
	b.Helper()
	tb := data.Generate(data.SyntheticSchema("R", attrs), benchRows, 42)
	return tb, storage.BuildColumnMajor(tb), storage.BuildRowMajor(tb, false)
}

func BenchmarkFilterGroupOnePred(b *testing.B) {
	tb, col, _ := benchFixture(b, 2)
	g, _ := col.GroupFor(0)
	preds := []GroupPred{{Off: 0, Op: expr.Lt, Val: 0}}
	sel := make([]int32, 0, benchRows)
	_ = tb
	b.SetBytes(benchRows * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = FilterGroup(g, preds, 0, g.Rows, sel[:0])
	}
	_ = sel
}

func BenchmarkFilterGroupTwoPredsFused(b *testing.B) {
	tb, _, _ := benchFixture(b, 2)
	g := storage.BuildGroup(tb, []data.AttrID{0, 1})
	preds := []GroupPred{
		{Off: 0, Op: expr.Lt, Val: 0},
		{Off: 1, Op: expr.Gt, Val: 0},
	}
	sel := make([]int32, 0, benchRows)
	b.SetBytes(benchRows * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = FilterGroup(g, preds, 0, g.Rows, sel[:0])
	}
	_ = sel
}

func BenchmarkRefineSel(b *testing.B) {
	tb, col, _ := benchFixture(b, 2)
	g, _ := col.GroupFor(1)
	all := FilterGroup(g, nil, 0, g.Rows, nil)
	preds := []GroupPred{{Off: 0, Op: expr.Gt, Val: 0}}
	scratch := make([]int32, len(all))
	_ = tb
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, all)
		RefineSel(g, preds, scratch)
	}
}

func BenchmarkGatherColumn(b *testing.B) {
	tb, col, _ := benchFixture(b, 2)
	g, _ := col.GroupFor(1)
	gp, _ := col.GroupFor(0)
	sel := FilterGroup(gp, []GroupPred{{Off: 0, Op: expr.Lt, Val: 0}}, 0, gp.Rows, nil)
	out := make([]data.Value, len(sel))
	_ = tb
	b.SetBytes(int64(len(sel)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherColumn(g, 0, sel, out)
	}
}

func BenchmarkSumOffsetsAll(b *testing.B) {
	tb, _, _ := benchFixture(b, 5)
	g := storage.BuildGroup(tb, []data.AttrID{0, 1, 2, 3, 4})
	out := make([]data.Value, g.Rows)
	b.SetBytes(benchRows * 5 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumOffsetsAll(g, []int{0, 1, 2, 3, 4}, out)
	}
}

// BenchmarkStrategy* time the four execution strategies on the same query —
// an aggregation over 10 of 50 attributes with a 50% filter — exposing the
// per-strategy overheads the engine's cost model has to rank.

func strategyQuery() *query.Query {
	attrs := []data.AttrID{3, 7, 12, 18, 22, 28, 33, 39, 44, 48}
	return query.Aggregation("R", expr.AggMax, attrs, query.PredLt(0, 0))
}

func BenchmarkStrategyRow(b *testing.B) {
	_, _, row := benchFixture(b, 50)
	q := strategyQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(row, q, ExecOpts{Strategy: StrategyRow}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyColumn(b *testing.B) {
	_, col, _ := benchFixture(b, 50)
	q := strategyQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(col, q, ExecOpts{Strategy: StrategyColumn}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyHybrid(b *testing.B) {
	tb, _, _ := benchFixture(b, 50)
	rel, err := storage.BuildPartitioned(tb, [][]data.AttrID{
		{0, 3, 7, 12, 18}, {22, 28, 33, 39, 44, 48},
		allExcept(50, []data.AttrID{0, 3, 7, 12, 18, 22, 28, 33, 39, 44, 48}),
	})
	if err != nil {
		b.Fatal(err)
	}
	q := strategyQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(rel, q, ExecOpts{Strategy: StrategyHybrid}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyGeneric(b *testing.B) {
	_, _, row := benchFixture(b, 50)
	q := strategyQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(row, q, ExecOpts{Strategy: StrategyGeneric}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline* time the streaming pipeline's segment-level fan-out:
// the same strategy on the same multi-segment relation, serial vs one worker
// per core. The parallel sub-runs should scale with segment count — they are
// the CI-visible proof that column, hybrid and vectorized execution fan out
// per segment instead of serializing phases.

func benchPipeline(b *testing.B, rel *storage.Relation, s Strategy) {
	b.Helper()
	q := strategyQuery()
	fanOut := runtime.NumCPU()
	if fanOut < 4 {
		fanOut = 4 // keep the fan-out visible on small CI machines
	}
	for _, workers := range []int{1, fanOut} {
		name := "serial"
		if workers > 1 {
			name = fmt.Sprintf("workers=%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 11 * 8)
			for i := 0; i < b.N; i++ {
				if _, err := Exec(rel, q, ExecOpts{Strategy: s, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPipelineColumn(b *testing.B) {
	tb := data.Generate(data.SyntheticSchema("R", 50), benchRows, 42)
	benchPipeline(b, storage.BuildColumnMajorSeg(tb, benchRows/16), StrategyColumn)
}

func BenchmarkPipelineHybrid(b *testing.B) {
	tb := data.Generate(data.SyntheticSchema("R", 50), benchRows, 42)
	benchPipeline(b, storage.BuildRowMajorSeg(tb, false, benchRows/16), StrategyHybrid)
}

// BenchmarkReorgOnline times the online reorganizing operator over every
// segment of a 100K-row column-major relation: max10 is max over 10 of 50
// attributes with no filter; adapt_seq is shaped like that workload's
// reorganizing selects — sum(a+b+…) over 13 of 100 attributes under one
// predicate selecting about 15 % of the rows, stitched from the columns
// and one prior 21-wide group.
func BenchmarkReorgOnline(b *testing.B) {
	b.Run("max10", func(b *testing.B) {
		_, col, _ := benchFixture(b, 50)
		attrs := []data.AttrID{0, 3, 7, 12, 18, 22, 28, 33, 39, 44}
		benchReorg(b, col, query.Aggregation("R", expr.AggMax, attrs, nil))
	})
	b.Run("adapt_seq", func(b *testing.B) {
		_, col, _ := benchFixture(b, 100)
		prior := []data.AttrID{2, 5, 9, 14, 17, 23, 26, 31, 35, 38, 47, 52, 56, 61, 64, 70, 73, 79, 84, 90, 97}
		g, err := storage.Stitch(col, prior)
		if err != nil {
			b.Fatal(err)
		}
		if err := col.AddGroup(g); err != nil {
			b.Fatal(err)
		}
		sum := []data.AttrID{5, 11, 14, 20, 26, 33, 41, 52, 58, 64, 77, 85, 93}
		cut := data.ValueLo + (data.ValueHi-data.ValueLo)*15/100
		benchReorg(b, col, query.AggExpression("R", sum, query.PredLt(60, cut)))
	})
}

// benchReorg times Exec's reorganizing strategy for q over rel, stitching
// every segment into a group over q's attributes across GOMAXPROCS workers,
// as the engine runs it (-cpu sets the width).
func benchReorg(b *testing.B, rel *storage.Relation, q *query.Query) {
	attrs := q.AllAttrs()
	workers := runtime.GOMAXPROCS(0)
	b.SetBytes(int64(len(attrs)) * int64(rel.Rows) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(rel, q, ExecOpts{Strategy: StrategyReorg, Workers: workers, ReorgAttrs: attrs}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStitchOffline(b *testing.B) {
	_, col, _ := benchFixture(b, 50)
	attrs := []data.AttrID{0, 3, 7, 12, 18, 22, 28, 33, 39, 44}
	b.SetBytes(int64(len(attrs)) * benchRows * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.Stitch(col, attrs); err != nil {
			b.Fatal(err)
		}
	}
}

// eventsSegment builds one column-major segment of rows tuples, with room
// for segCap, shaped like an append-only events table: a0 an
// append-ordered timestamp, a1 64 distinct values, a2 4096 distinct
// values, a3..a7 uniform.
func eventsSegment(rows, segCap int) *storage.Relation {
	tb := data.GenerateTimeSeries(data.SyntheticSchema("events", 8), rows, 2014)
	for r := 0; r < rows; r++ {
		tb.Cols[1][r] &= 63
		tb.Cols[2][r] &= 4095
	}
	return storage.BuildColumnMajorSeg(tb, segCap)
}

// BenchmarkExecDeltaColumnMajor times the delta-repair scan of one
// column-major 40K-row events segment with a tail-window predicate
// (a0 >= c, three quarters of the rows qualify): the scalar
// sum/count/max shape and its GROUP BY a1 variant. No single column group
// covers either query, so this is the per-segment operator choice of the
// partial scan, not the fused single-group kernel.
func BenchmarkExecDeltaColumnMajor(b *testing.B) {
	const rows = 40_000
	rel := eventsSegment(rows, rows)
	for _, c := range eventsDeltaQueries(rows) {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(rows * 3 * 8)
			for i := 0; i < b.N; i++ {
				if _, _, err := ExecDelta(rel, c.q, nil, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// eventsDeltaQueries are the delta-repair shapes over an events segment
// of rows tuples: a tail-window predicate (a0 >= rows/4) under the scalar
// sum/count/max shape and its GROUP BY a1 variant.
func eventsDeltaQueries(rows int) []struct {
	name string
	q    *query.Query
} {
	where := &expr.Cmp{Op: expr.Ge, L: &expr.Col{ID: 0}, R: &expr.Const{V: data.Value(rows / 4)}}
	scalar := &query.Query{Table: "events", Where: where, Items: []query.SelectItem{
		{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: 3}}},
		{Agg: &expr.Agg{Op: expr.AggCount, Arg: &expr.Col{ID: 0}}},
		{Agg: &expr.Agg{Op: expr.AggMax, Arg: &expr.Col{ID: 5}}},
	}}
	grouped := &query.Query{Table: "events", Where: where, GroupBy: []expr.Col{{ID: 1}}, Items: []query.SelectItem{
		{Expr: &expr.Col{ID: 1}},
		{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: 4}}},
		{Agg: &expr.Agg{Op: expr.AggCount, Arg: &expr.Col{ID: 0}}},
	}}
	return []struct {
		name string
		q    *query.Query
	}{{"scalar", scalar}, {"grouped", grouped}}
}

// BenchmarkExecDeltaTailSuffix times the repair BenchmarkExecDeltaColumnMajor
// sets up, one 64-row batch later: the same 40K-row column-major events
// segment, now a partly full tail with cached partials, takes a 64-row
// AppendBatch, and ExecDelta runs against the cached version vector. Only
// the appended rows need scanning.
func BenchmarkExecDeltaTailSuffix(b *testing.B) {
	const rows, batch = 40_000, 64
	appended := make([][]data.Value, batch)
	for i := range appended {
		appended[i] = []data.Value{data.Value(rows + i), data.Value(i & 63), data.Value(i), 3, 4, 5, 6, 7}
	}
	for _, c := range eventsDeltaQueries(rows) {
		b.Run(c.name, func(b *testing.B) {
			rel := eventsSegment(rows, storage.DefaultSegmentCapacity)
			prior, err := ExecPartials(rel, c.q, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := rel.AppendBatch(appended); err != nil {
				b.Fatal(err)
			}
			have := prior.Versions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ExecDelta(rel, c.q, have, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchGroups keeps BenchmarkGroupedFold's partials alive.
var benchGroups map[string][]*expr.AggState

// BenchmarkGroupedFold times one column-major 40K-row events segment's
// grouped fold into a segment partial (fold plus canonical group map),
// with three quarters of the rows selected and sum, count, min and max
// per group: GROUP BY a key of 64 values and of 4096 values (dense
// directories), of 4096 values spread over int64 (hashed), of two keys of
// 64 and 16 values (a hashed key vector), and of the row number, whose
// 40K-value span is past the dense cap, over those rows (wide: one group
// per row) and over every hundredth of them (selective).
func BenchmarkGroupedFold(b *testing.B) {
	const rows = 40_000
	tb := data.GenerateTimeSeries(data.SyntheticSchema("events", 8), rows, 2014)
	rng := rand.New(rand.NewSource(2015))
	pool := make([]data.Value, 4096)
	for i := range pool {
		pool[i] = data.Value(rng.Uint64())
	}
	for r := 0; r < rows; r++ {
		tb.Cols[1][r] &= 63
		tb.Cols[2][r] &= 4095
		tb.Cols[6][r] = pool[rng.Intn(len(pool))]
		tb.Cols[7][r] &= 15
	}
	seg := storage.BuildColumnMajorSeg(tb, rows).Segments[0]
	var sel, sparseSel []int32
	for r := rows / 4; r < rows; r++ {
		sel = append(sel, int32(r))
		if r%100 == 0 {
			sparseSel = append(sparseSel, int32(r))
		}
	}
	agg := func(op expr.AggOp, a data.AttrID) query.SelectItem {
		return query.SelectItem{Agg: &expr.Agg{Op: op, Arg: &expr.Col{ID: a}}}
	}
	for _, c := range []struct {
		name string
		keys []data.AttrID
		sel  []int32
	}{
		{"dense64", []data.AttrID{1}, sel},
		{"dense4096", []data.AttrID{2}, sel},
		{"sparse", []data.AttrID{6}, sel},
		{"twokey", []data.AttrID{1, 7}, sel},
		{"wide", []data.AttrID{0}, sel},
		{"selective", []data.AttrID{0}, sparseSel},
	} {
		q := &query.Query{Table: "events"}
		for _, k := range c.keys {
			q.GroupBy = append(q.GroupBy, expr.Col{ID: k})
			q.Items = append(q.Items, query.SelectItem{Expr: &expr.Col{ID: k}})
		}
		q.Items = append(q.Items, agg(expr.AggSum, 3), agg(expr.AggCount, 0), agg(expr.AggMin, 4), agg(expr.AggMax, 5))
		out := Classify(q)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ga := newGroupedAcc(out)
				if err := foldGroupedSel(seg, out, ga, c.sel, true, false, nil); err != nil {
					b.Fatal(err)
				}
				benchGroups = ga.groups()
			}
		})
	}
}

func allExcept(n int, excl []data.AttrID) []data.AttrID {
	skip := map[data.AttrID]bool{}
	for _, a := range excl {
		skip[a] = true
	}
	var out []data.AttrID
	for a := 0; a < n; a++ {
		if !skip[a] {
			out = append(out, a)
		}
	}
	return out
}
