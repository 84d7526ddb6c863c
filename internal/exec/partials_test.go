package exec

import (
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

func TestRepairableClassifier(t *testing.T) {
	agg := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredLt(0, 10))
	mixedOps := &query.Query{Table: "R", Items: []query.SelectItem{
		{Agg: &expr.Agg{Op: expr.AggMax, Arg: &expr.Col{ID: 0}}},
		{Agg: &expr.Agg{Op: expr.AggSum, Arg: expr.SumCols([]data.AttrID{1, 2})}},
	}}
	limited := query.Aggregation("R", expr.AggCount, []data.AttrID{0}, nil)
	limited.Limit = 5
	cases := []struct {
		name string
		q    *query.Query
		want bool
	}{
		{"aggregation", agg, true},
		{"agg-expression", query.AggExpression("R", []data.AttrID{0, 1}, nil), true},
		{"mixed aggregate shapes (generic path)", mixedOps, true},
		{"projection", query.Projection("R", []data.AttrID{0}, nil), false},
		{"expression", query.ArithExpression("R", []data.AttrID{0, 1}, nil), false},
		{"aggregate with limit", limited, false},
		{"empty select", &query.Query{Table: "R"}, false},
		{"nil", nil, false},
	}
	for _, c := range cases {
		if got := Repairable(c.q); got != c.want {
			t.Errorf("%s: Repairable = %v, want %v", c.name, got, c.want)
		}
	}
}

// partialRelation builds a small append-ordered relation whose attribute 0
// is the row position, so range predicates on it prune segments exactly.
func partialRelation(t *testing.T, rows, segCap int) *storage.Relation {
	t.Helper()
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 4), rows, 7)
	return storage.BuildColumnMajorSeg(tb, segCap)
}

// partialLayouts builds one 5-attribute, 1000-row relation (a0 the row
// position, a1 eight distinct values, a2 four, a3/a4 uniform) in every
// layout a partial scan must serve: column-major (no group covers a
// multi-attribute query), mixed (every other segment carries an extra
// full-width or narrow group, so segments of one relation take different
// operators), row-major, and column-major with half the sealed segments
// demoted to encoded blocks.
func partialLayouts(t *testing.T) map[string]*storage.Relation {
	t.Helper()
	const rows, segCap = 1000, 128
	mk := func() *data.Table {
		tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 5), rows, 7)
		for r := 0; r < rows; r++ {
			tb.Cols[1][r] &= 7
			tb.Cols[2][r] &= 3
		}
		return tb
	}
	mixed := storage.BuildColumnMajorSeg(mk(), segCap)
	extra := [][]data.AttrID{{0, 1, 2, 3, 4}, {1, 3, 4}}
	for si, seg := range mixed.Segments {
		if si%2 == 1 {
			continue
		}
		g, err := storage.StitchSeg(seg, extra[(si/2)%2])
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.AddGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	encoded := storage.BuildColumnMajorSeg(mk(), segCap)
	demoteFraction(encoded, 0.5)
	return map[string]*storage.Relation{
		"column-major": storage.BuildColumnMajorSeg(mk(), segCap),
		"mixed":        mixed,
		"row-major":    storage.BuildRowMajorSeg(mk(), false, segCap),
		"encoded":      encoded,
	}
}

// TestPartialsMatchFullScan: on every layout, for every aggregate operator
// and every per-segment operator the partial scan can pick (encoded blocks,
// fused single-group kernel, hybrid selection vectors, generic
// interpreter), the combined partials — serial and fanned out — equal the
// generic reference.
func TestPartialsMatchFullScan(t *testing.T) {
	col := func(a data.AttrID) expr.Expr { return &expr.Col{ID: a} }
	agg := func(op expr.AggOp, e expr.Expr) query.SelectItem {
		return query.SelectItem{Agg: &expr.Agg{Op: op, Arg: e}}
	}
	key := func(a data.AttrID) query.SelectItem { return query.SelectItem{Expr: col(a)} }
	cmp := func(a data.AttrID, op expr.CmpOp, v data.Value) expr.Pred {
		return &expr.Cmp{Op: op, L: col(a), R: &expr.Const{V: v}}
	}
	and := func(ps ...expr.Pred) expr.Pred { return &expr.And{Terms: ps} }
	// a3 > 10 and a3 < 5 never prunes a segment but selects no row.
	empty := and(cmp(3, expr.Gt, 10), cmp(3, expr.Lt, 5))
	or := &expr.Or{L: cmp(0, expr.Lt, 200), R: cmp(1, expr.Eq, 3)}
	queries := []*query.Query{
		query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredLt(0, 700)),
		query.Aggregation("R", expr.AggMax, []data.AttrID{3}, nil),
		query.Aggregation("R", expr.AggMin, []data.AttrID{1}, query.PredGt(2, 0)),
		query.Aggregation("R", expr.AggCount, []data.AttrID{0}, nil),
		query.Aggregation("R", expr.AggAvg, []data.AttrID{2}, query.PredLt(0, 999)),
		// Scalar aggregates over several attributes: the repair shape no
		// single column group covers.
		{Table: "R", Where: cmp(0, expr.Ge, 300), Items: []query.SelectItem{
			agg(expr.AggSum, col(3)), agg(expr.AggCount, col(0)), agg(expr.AggMax, col(4))}},
		{Table: "R", Where: and(cmp(0, expr.Lt, 700), cmp(4, expr.Gt, 0)), Items: []query.SelectItem{
			agg(expr.AggMin, col(1)), agg(expr.AggAvg, col(3))}},
		query.AggExpression("R", []data.AttrID{1, 2, 3}, query.PredGt(0, 100)),
		query.AggExpression("R", []data.AttrID{3, 4}, nil),
		// GROUP BY one key, and two keys (the encoded-key path) with an
		// unselected key, a column-sum argument and an interpreted one.
		{Table: "R", Where: cmp(0, expr.Ge, 250), GroupBy: []expr.Col{{ID: 1}}, Items: []query.SelectItem{
			key(1), agg(expr.AggSum, col(3)), agg(expr.AggCount, col(0))}},
		{Table: "R", Where: cmp(4, expr.Lt, 0), GroupBy: []expr.Col{{ID: 1}, {ID: 2}}, Items: []query.SelectItem{
			key(2), agg(expr.AggMax, col(3)), agg(expr.AggAvg, expr.SumCols([]data.AttrID{3, 4})),
			agg(expr.AggSum, &expr.Arith{Op: expr.Sub, L: col(4), R: col(3)})}},
		// min/max/avg over an empty selection, scalar and grouped.
		{Table: "R", Where: empty, Items: []query.SelectItem{
			agg(expr.AggMin, col(4)), agg(expr.AggMax, col(4)), agg(expr.AggAvg, col(2))}},
		{Table: "R", Where: empty, GroupBy: []expr.Col{{ID: 1}}, Items: []query.SelectItem{
			key(1), agg(expr.AggMin, col(4)), agg(expr.AggMax, col(3))}},
		// Non-splittable predicate: interpreted filter on covering groups,
		// generic interpreter elsewhere.
		{Table: "R", Where: or, Items: []query.SelectItem{agg(expr.AggSum, col(3)), agg(expr.AggMin, col(4))}},
		{Table: "R", Where: or, GroupBy: []expr.Col{{ID: 2}}, Items: []query.SelectItem{
			key(2), agg(expr.AggCount, col(0)), agg(expr.AggMax, col(4))}},
		// Mixed aggregate shapes (OutOther): generic per-segment path.
		{Table: "R", Items: []query.SelectItem{
			agg(expr.AggMax, col(1)), agg(expr.AggSum, expr.SumCols([]data.AttrID{2, 3}))}},
	}
	for name, rel := range partialLayouts(t) {
		for _, q := range queries {
			if !Repairable(q) {
				t.Fatalf("%s: test query is not repairable", q)
			}
			want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
			if err != nil {
				t.Fatal(err)
			}
			var st StrategyStats
			p, err := ExecPartials(rel, q, &st)
			if err != nil {
				t.Fatalf("%s %s: %v", name, q, err)
			}
			if got := p.Result(); !got.Equal(want) {
				t.Fatalf("%s %s: partials %v, full scan %v", name, q, got.Data, want.Data)
			}
			// Result() must not consume the partials: combining twice is
			// legal (the cache shares payloads between repairs).
			if got := p.Result(); !got.Equal(want) {
				t.Fatalf("%s %s: second Result() diverged — partials were mutated", name, q)
			}
			if p.Bytes() <= 0 {
				t.Fatalf("%s %s: Bytes() = %d", name, q, p.Bytes())
			}
			fanned, _, err := ExecDelta(rel, q, nil, 4, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", name, q, err)
			}
			if got := fanned.Result(); !got.Equal(want) {
				t.Fatalf("%s %s: fanned-out partials %v, full scan %v", name, q, got.Data, want.Data)
			}
		}
	}
}

// TestGroupedAccSingleKeyIndex checks the accumulator every grouped
// strategy (the generic reference included) shares against plain counting:
// single-key chunk folds through a dense directory, interleaved with
// key-wise merges of groups outside its span — the first of which converts
// the directory to hashed — must land every row in the one group of its
// key.
func TestGroupedAccSingleKeyIndex(t *testing.T) {
	out := Outputs{GroupBy: []data.AttrID{0}, GroupOps: []expr.AggOp{expr.AggCount}}
	ga := newGroupedAcc(out)
	ga.plan(-6, 6)
	want := map[data.Value]int64{}
	ids := make([]int32, 1)
	for i := 0; i < 1000; i++ {
		k := data.Value(i*7%13 - 6)
		if i%100 == 0 {
			// A merged-in group outside the dense span.
			src := newGroupedAcc(out)
			mk := data.Value(100 + i%300)
			id := src.id([]data.Value{mk})
			src.count[id]++
			ga.mergeMap(src.groups())
			want[mk]++
		}
		ga.ids([]data.Value{k}, ids)
		want[k]++
	}
	if ga.dir.dense {
		t.Fatal("merging keys outside the span left the directory dense")
	}
	got := ga.groups()
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for k, n := range want {
		sts := got[string(encodeGroupKey(nil, []data.Value{k}))]
		if sts == nil || sts[0].Result() != n {
			t.Fatalf("group %d: states %v, want count %d", k, sts, n)
		}
	}
}

// TestExecDeltaTailAppend: after tail appends, a delta scan rescans only
// the mutated tail and the combined result matches a cold full scan. Once
// the tail has a cached partial, appends into it rescan only the appended
// rows as a suffix, a reorganization-only bump re-stamps the partial
// without scanning, and Repaired refuses a suffix whose base it lacks.
func TestExecDeltaTailAppend(t *testing.T) {
	const segCap = 128
	rel := partialRelation(t, 4*segCap, segCap) // 4 sealed-capacity segments
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)

	prior, err := ExecPartials(rel, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior.Segs) != 4 {
		t.Fatalf("seed partials cover %d segments, want 4", len(prior.Segs))
	}

	for i := 0; i < 3; i++ {
		if err := rel.Append([]data.Value{data.Value(1_000_000 + i), 5, 6, 7}); err != nil {
			t.Fatal(err)
		}
	}

	var st StrategyStats
	fresh, reused, err := ExecDelta(rel, q, prior.Versions(), 4, &st)
	if err != nil {
		t.Fatal(err)
	}
	// The appends opened segment 4; segments 0-3 are untouched.
	if len(reused) != 4 {
		t.Fatalf("reused %v, want the 4 sealed segments", reused)
	}
	if len(fresh.Segs) != 1 {
		t.Fatalf("rescanned %d segments, want 1 (the new tail)", len(fresh.Segs))
	}
	if _, ok := fresh.Segs[4]; !ok {
		t.Fatalf("rescanned segments %v, want the appended tail (index 4)", fresh.Segs)
	}
	if st.SegmentsScanned != 1 {
		t.Fatalf("SegmentsScanned = %d, want 1", st.SegmentsScanned)
	}

	want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	if got := Repaired(prior, fresh, reused).Result(); !got.Equal(want) {
		t.Fatalf("repaired result %v, cold full scan %v", got.Data, want.Data)
	}
	// A repair that opened the tail scanned it whole: there was nothing to
	// extend.
	if sp := fresh.Segs[4]; sp.Base != 0 {
		t.Fatalf("new tail came back as a suffix of version %d", sp.Base)
	}

	// Appends into the partly full tail: only the new rows are scanned.
	cached := Repaired(prior, fresh, reused)
	tail := rel.Tail()
	if err := rel.AppendBatch([][]data.Value{{1_000_010, 1, 2, 3}, {1_000_011, 4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	have := cached.Versions()
	st = StrategyStats{}
	fresh, reused, err = ExecDelta(rel, q, have, 4, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(reused) != 4 || len(fresh.Segs) != 1 || st.SegmentsScanned != 1 {
		t.Fatalf("reused %v, fresh %d, scanned %d; want 4 reused and the tail alone rescanned",
			reused, len(fresh.Segs), st.SegmentsScanned)
	}
	sp := fresh.Segs[4]
	if sp == nil || sp.Base != have[4] || sp.Version != tail.Version() {
		t.Fatalf("tail partial %+v, want a suffix of version %d stamped %d", sp, have[4], tail.Version())
	}
	if n := sp.States[0].Count; n != 2 {
		t.Fatalf("suffix folded %d rows, want the 2 appended", n)
	}
	if want, err = Exec(rel, q, ExecOpts{Strategy: StrategyGeneric}); err != nil {
		t.Fatal(err)
	}
	cached = Repaired(cached, fresh, reused)
	if got := cached.Result(); !got.Equal(want) {
		t.Fatalf("suffix repair %v, cold full scan %v", got.Data, want.Data)
	}

	// A reorganization of the tail bumps its version without adding rows:
	// the partial is re-stamped, nothing is scanned.
	g, err := storage.StitchSeg(tail, []data.AttrID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tail.AddGroup(g); err != nil {
		t.Fatal(err)
	}
	have = cached.Versions()
	st = StrategyStats{}
	fresh, reused, err = ExecDelta(rel, q, have, 1, &st)
	if err != nil {
		t.Fatal(err)
	}
	if sp := fresh.Segs[4]; sp == nil || sp.Base != have[4] || sp.Version != tail.Version() || st.SegmentsScanned != 0 {
		t.Fatalf("tail partial %+v after %d scans, want a re-stamp of version %d at %d without scanning",
			sp, st.SegmentsScanned, have[4], tail.Version())
	}
	if got := Repaired(cached, fresh, reused).Result(); !got.Equal(want) {
		t.Fatalf("re-stamped repair %v, cold full scan %v", got.Data, want.Data)
	}

	// The seed payload holds no partial of the tail: folding a suffix into
	// it is a caller bug, not a silent undercount.
	defer func() {
		if recover() == nil {
			t.Fatal("Repaired folded a suffix whose base the prior payload lacks")
		}
	}()
	Repaired(prior, fresh, reused)
}

// TestExecDeltaPrunedTail: when the appended rows fall outside the query's
// predicate range, the tail never becomes a candidate — the delta scan
// reuses everything and rescans nothing.
func TestExecDeltaPrunedTail(t *testing.T) {
	const segCap = 128
	rel := partialRelation(t, 4*segCap, segCap)
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, query.PredLt(0, data.Value(segCap)))

	prior, err := ExecPartials(rel, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior.Segs) != 1 {
		t.Fatalf("selective seed covers %d segments, want 1", len(prior.Segs))
	}
	if err := rel.Append([]data.Value{9_000_000, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	var st StrategyStats
	fresh, reused, err := ExecDelta(rel, q, prior.Versions(), 1, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Segs) != 0 || len(reused) != 1 {
		t.Fatalf("fresh=%d reused=%v, want 0 rescans and segment 0 reused", len(fresh.Segs), reused)
	}
	want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	if got := Repaired(prior, fresh, reused).Result(); !got.Equal(want) {
		t.Fatalf("repaired result %v, cold full scan %v", got.Data, want.Data)
	}
}

// TestExecDeltaUnsupported: non-repairable shapes must refuse cleanly.
func TestExecDeltaUnsupported(t *testing.T) {
	rel := partialRelation(t, 100, 64)
	if _, _, err := ExecDelta(rel, query.Projection("R", []data.AttrID{0}, nil), nil, 1, nil); err != ErrUnsupported {
		t.Fatalf("projection: err = %v, want ErrUnsupported", err)
	}
	limited := query.Aggregation("R", expr.AggCount, []data.AttrID{0}, nil)
	limited.Limit = 1
	if _, _, err := ExecDelta(rel, limited, nil, 1, nil); err != ErrUnsupported {
		t.Fatalf("limited aggregate: err = %v, want ErrUnsupported", err)
	}
}
