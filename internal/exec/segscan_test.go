package exec

import (
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// segFixture builds an append-ordered relation (attr 0 = row index) split
// into 50 segments of 200 rows.
func segFixture(t *testing.T, build func(*data.Table, int) *storage.Relation) (*data.Table, *storage.Relation) {
	t.Helper()
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), 10_000, 5)
	return tb, build(tb, 200)
}

func colBuild(tb *data.Table, segCap int) *storage.Relation {
	return storage.BuildColumnMajorSeg(tb, segCap)
}

func rowBuild(tb *data.Table, segCap int) *storage.Relation {
	return storage.BuildRowMajorSeg(tb, false, segCap)
}

// TestSelectiveScanSkipsColdSegments is the acceptance check for
// segment-level zone-map pruning: a selective range predicate over
// append-ordered data must skip at least 90% of the segments on every
// strategy, while still returning exactly the right answer.
func TestSelectiveScanSkipsColdSegments(t *testing.T) {
	tbCol, col := segFixture(t, colBuild)
	_, row := segFixture(t, rowBuild)
	// Rows [9000, 10000): the last 5 of 50 segments.
	pred := query.PredGt(0, 8999)
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{2, 4}, pred)
	want := referenceExecute(tbCol, q)

	type strat struct {
		name string
		run  func(rel *storage.Relation, st *StrategyStats) (*Result, error)
	}
	strategies := []strat{
		{"row-fused", func(rel *storage.Relation, st *StrategyStats) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyRow, Stats: st})
		}},
		{"row-parallel", func(rel *storage.Relation, st *StrategyStats) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyRow, Workers: 4, Stats: st})
		}},
		{"column-late", func(rel *storage.Relation, st *StrategyStats) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyColumn, Stats: st})
		}},
		{"hybrid", func(rel *storage.Relation, st *StrategyStats) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyHybrid, Stats: st})
		}},
	}
	for _, s := range strategies {
		for _, rel := range []*storage.Relation{col, row} {
			if s.name == "row-fused" || s.name == "row-parallel" {
				if rel == col {
					continue // no covering group on the column layout
				}
			}
			var st StrategyStats
			res, err := s.run(rel, &st)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if !res.Equal(want) {
				t.Fatalf("%s: wrong result under segment pruning", s.name)
			}
			total := st.SegmentsScanned + st.SegmentsPruned
			if total != len(rel.Segments) {
				t.Fatalf("%s: scanned+pruned = %d, want %d", s.name, total, len(rel.Segments))
			}
			if ratio := float64(st.SegmentsPruned) / float64(total); ratio < 0.9 {
				t.Fatalf("%s: pruned only %.0f%% of segments (%d/%d), want >= 90%%",
					s.name, 100*ratio, st.SegmentsPruned, total)
			}
		}
	}
}

// TestLimitStopsConsumingSegments: a limited projection must stop after the
// first segment(s) that satisfy it instead of materializing the whole scan.
func TestLimitStopsConsumingSegments(t *testing.T) {
	tb, col := segFixture(t, colBuild)
	_, row := segFixture(t, rowBuild)
	q := query.Projection("R", []data.AttrID{0, 3}, nil)
	q.Limit = 150 // one full segment (200 rows) satisfies it

	check := func(name string, res *Result, st *StrategyStats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rows < q.Limit {
			t.Fatalf("%s: produced %d rows, want >= %d", name, res.Rows, q.Limit)
		}
		if st.SegmentsScanned > 2 {
			t.Fatalf("%s: scanned %d segments for a 150-row limit", name, st.SegmentsScanned)
		}
		// The produced prefix is the true scan-order prefix.
		for r := 0; r < q.Limit; r++ {
			if res.At(r, 0) != tb.Value(r, 0) || res.At(r, 1) != tb.Value(r, 3) {
				t.Fatalf("%s: limited prefix diverges at row %d", name, r)
			}
		}
	}

	var st StrategyStats
	res, err := Exec(col, q, ExecOpts{Strategy: StrategyHybrid, Stats: &st})
	check("hybrid", res, &st, err)
	st = StrategyStats{}
	res, err = Exec(col, q, ExecOpts{Strategy: StrategyColumn, Stats: &st})
	check("column", res, &st, err)
	st = StrategyStats{}
	res, err = Exec(row, q, ExecOpts{Strategy: StrategyRow, Stats: &st})
	check("row-fused", res, &st, err)

	// The generic interpreted operator exits early too: segments beyond the
	// needed prefix must never be touched (their read counters stay zero).
	_, gen := segFixture(t, colBuild)
	res, err = Exec(gen, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows < q.Limit {
		t.Fatalf("generic produced %d rows", res.Rows)
	}
	touched := 0
	for _, seg := range gen.Segments {
		if seg.Reads() > 0 {
			touched++
		}
	}
	if touched > 2 {
		t.Fatalf("generic touched %d segments for a 150-row limit", touched)
	}

	// Aggregates must NOT early-exit: the limit applies to result rows, and
	// an aggregate has one.
	agg := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, nil)
	agg.Limit = 1
	st = StrategyStats{}
	aggRes, err := Exec(col, agg, ExecOpts{Strategy: StrategyHybrid, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsScanned != len(col.Segments) {
		t.Fatalf("aggregate scanned %d/%d segments: limits must not truncate aggregation input",
			st.SegmentsScanned, len(col.Segments))
	}
	if !aggRes.Equal(referenceExecute(tb, agg)) {
		t.Fatal("aggregate over limited query wrong")
	}
}

// TestMixedLayoutSegmentsAgree: after reorganizing only SOME segments (the
// incremental adaptation case), every strategy must still compute exact
// results by resolving groups per segment.
func TestMixedLayoutSegmentsAgree(t *testing.T) {
	tb, rel := segFixture(t, colBuild)
	// Hand-adapt segments 1 and 3: they get a fused group over the query's
	// attributes; all other segments stay column-major.
	attrs := []data.AttrID{0, 2, 4}
	for _, si := range []int{1, 3} {
		g, err := storage.StitchSeg(rel.Segments[si], attrs)
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Segments[si].AddGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	if rel.Uniform() {
		t.Fatal("fixture should be mixed-layout")
	}
	for qi, q := range []*query.Query{
		query.Aggregation("R", expr.AggSum, []data.AttrID{2, 4}, query.PredLt(0, 777)),
		query.Projection("R", []data.AttrID{0, 2, 4}, query.PredGt(0, 9_500)),
		query.AggExpression("R", []data.AttrID{2, 4}, nil),
	} {
		want := referenceExecute(tb, q)
		if res, err := Exec(rel, q, ExecOpts{Strategy: StrategyHybrid}); err != nil || !res.Equal(want) {
			t.Fatalf("query %d hybrid on mixed layout: err=%v", qi, err)
		}
		if res, err := Exec(rel, q, ExecOpts{Strategy: StrategyColumn}); err != nil || !res.Equal(want) {
			t.Fatalf("query %d column on mixed layout: err=%v", qi, err)
		}
		if res, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric}); err != nil || !res.Equal(want) {
			t.Fatalf("query %d generic on mixed layout: err=%v", qi, err)
		}
	}
}

// TestReorgHotSubset: the online reorganizer stitches only the hot mask and
// answers cold segments from their existing layout.
func TestReorgHotSubset(t *testing.T) {
	tb, rel := segFixture(t, colBuild)
	q := query.Aggregation("R", expr.AggMax, []data.AttrID{1, 2}, nil)
	attrs := q.AllAttrs()
	hot := make([]bool, len(rel.Segments))
	hot[0], hot[7], hot[49] = true, true, true

	var groups []*storage.ColumnGroup
	res, err := Exec(rel, q, ExecOpts{Strategy: StrategyReorg, ReorgAttrs: attrs, HotMask: hot, NewGroups: &groups})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(referenceExecute(tb, q)) {
		t.Fatal("hot-subset reorg answered the query wrong")
	}
	built := 0
	for si, g := range groups {
		if g != nil {
			built++
			if !hot[si] {
				t.Fatalf("segment %d reorganized but was not hot", si)
			}
			if g.Rows != rel.Segments[si].Rows {
				t.Fatalf("segment %d new group rows = %d", si, g.Rows)
			}
		}
	}
	if built != 3 {
		t.Fatalf("built %d groups, want 3", built)
	}
}
