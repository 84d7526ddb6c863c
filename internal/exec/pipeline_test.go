package exec

// Operator-level tests for the streaming pipeline: each strategy's
// per-segment operator runs directly against hand-computed expectations on
// hand-built segments — exact segment-boundary sizes, partial tails, empty
// segments — and the registry invariants the chooser, Explain and the
// operator generator rely on are pinned here.

import (
	"reflect"
	"strings"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

const opSegCap = 64

func TestStrategyRegistry(t *testing.T) {
	if got, want := CostedStrategies(), []Strategy{StrategyRow, StrategyHybrid, StrategyColumn}; !reflect.DeepEqual(got, want) {
		t.Fatalf("CostedStrategies() = %v, want %v", got, want)
	}
	if got, want := ExplainStrategies(), []Strategy{StrategyRow, StrategyHybrid, StrategyColumn, StrategyGeneric}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ExplainStrategies() = %v, want %v", got, want)
	}
	plannable := map[Strategy]bool{
		StrategyRow:        true,
		StrategyColumn:     true,
		StrategyHybrid:     true,
		StrategyGeneric:    true,
		StrategyVectorized: false,
		StrategyBitmap:     false,
		StrategyEncoded:    false,
		StrategyReorg:      false,
		StrategyDelta:      false,
	}
	for s, want := range plannable {
		if got := Plannable(s); got != want {
			t.Fatalf("Plannable(%v) = %v, want %v", s, got, want)
		}
	}
	// The metric names exec.strategy_share.<name> loop over the constants
	// from StrategyRow to StrategyJoin: the retired constants keep their
	// places and names.
	var names []string
	for s := StrategyRow; s <= StrategyJoin; s++ {
		names = append(names, s.String())
	}
	want := []string{"row-fused", "column-late", "hybrid-groups", "generic", "online-reorg",
		"delta-repair", "encoded-direct", "vectorized", "bitmap", "hash-join"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("strategy names %v, want %v", names, want)
	}
}

func TestExecRejectsUnbuildableStrategies(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 4), 10, 1)
	rel := storage.BuildColumnMajor(tb)
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, nil)
	for _, s := range []Strategy{StrategyDelta, StrategyVectorized, StrategyBitmap, StrategyJoin, Strategy(99)} {
		_, err := Exec(rel, q, ExecOpts{Strategy: s})
		if err == nil || !strings.Contains(err.Error(), "no pipeline builder") {
			t.Fatalf("Exec with strategy %v: err = %v, want a no-pipeline-builder error", s, err)
		}
	}
}

// TestSegmentOperatorsHandBuilt runs every per-segment operator directly on
// each segment of hand-built relations — one sized exactly at the segment
// boundary, one with a partial tail — and checks the partial's scalar
// accumulator against a naive loop over that segment's row range.
func TestSegmentOperatorsHandBuilt(t *testing.T) {
	for _, rows := range []int{opSegCap, 2*opSegCap + 17} {
		tb := data.Generate(data.SyntheticSchema("R", 4), rows, int64(rows))
		rel := storage.BuildColumnMajorSeg(tb, opSegCap)
		q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredGt(3, 0))
		out := Classify(q)
		preds, ok := SplitConjunction(q.Where)
		if !ok {
			t.Fatal("expected a splittable conjunction")
		}
		ops := []struct {
			name string
			run  func(seg *storage.Segment) (*partial, error)
		}{
			{"column", func(seg *storage.Segment) (*partial, error) {
				return columnSegPartial(seg, out, preds, nil)
			}},
			{"hybrid", func(seg *storage.Segment) (*partial, error) {
				return hybridSegPartial(seg, q, out, preds, nil)
			}},
			{"encoded", func(seg *storage.Segment) (*partial, error) {
				return segmentPartial(seg, q, out, preds, true, nil)
			}},
		}
		base := 0
		for si, seg := range rel.Segments {
			if seg.Rows == 0 {
				continue
			}
			var want1, want2 data.Value
			for r := base; r < base+seg.Rows; r++ {
				if tb.Cols[3][r] > 0 {
					want1 += tb.Cols[1][r]
					want2 += tb.Cols[2][r]
				}
			}
			check := func(name string, p *partial, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("rows=%d seg=%d op=%s: %v", rows, si, name, err)
				}
				if !p.groups.scalar() {
					t.Fatalf("rows=%d seg=%d op=%s: a scalar partial with group keys", rows, si, name)
				}
				states := p.groups.states()
				if len(states) != 2 {
					t.Fatalf("rows=%d seg=%d op=%s: %d states, want 2", rows, si, name, len(states))
				}
				if g1, g2 := states[0].Result(), states[1].Result(); g1 != want1 || g2 != want2 {
					t.Fatalf("rows=%d seg=%d op=%s: partial = (%d, %d), want (%d, %d)",
						rows, si, name, g1, g2, want1, want2)
				}
			}
			for _, op := range ops {
				p, err := op.run(seg)
				check(op.name, p, err)
			}
			// The encoded operator must route a demoted segment through the
			// header-fold kernel and still produce the identical partial.
			if si < len(rel.Segments)-1 && seg.State() == storage.SegResident {
				seg.DemoteToEncoded()
				var st StrategyStats
				p, err := segmentPartial(seg, q, out, preds, true, &st)
				check("encoded-demoted", p, err)
				if st.EncodedBytes == 0 && st.DecodeSkips == 0 {
					t.Fatalf("rows=%d seg=%d: encoded operator on a demoted segment consumed no encoded data", rows, si)
				}
			}
			base += seg.Rows
		}
	}
}

// TestExecSkipsEmptySegments pins the SegSource policy: segments with no
// rows are neither scanned nor counted — a zero-row relation (every segment
// empty) executes without touching anything, and at any size
// scanned + pruned accounts for exactly the non-empty segments.
func TestExecSkipsEmptySegments(t *testing.T) {
	for _, rows := range []int{0, opSegCap, opSegCap + 1} {
		tb := data.Generate(data.SyntheticSchema("R", 4), rows, 5)
		rel := storage.BuildColumnMajorSeg(tb, opSegCap)
		nonEmpty := 0
		for _, seg := range rel.Segments {
			if seg.Rows > 0 {
				nonEmpty++
			}
		}
		q := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, nil)
		for _, s := range []Strategy{StrategyRow, StrategyColumn, StrategyHybrid, StrategyGeneric} {
			var st StrategyStats
			if _, err := Exec(rel, q, ExecOpts{Strategy: s, Stats: &st}); err != nil {
				t.Fatalf("rows=%d strategy %v: %v", rows, s, err)
			}
			if st.SegmentsScanned+st.SegmentsPruned != nonEmpty {
				t.Fatalf("rows=%d strategy %v: scanned %d + pruned %d, want %d non-empty segments",
					rows, s, st.SegmentsScanned, st.SegmentsPruned, nonEmpty)
			}
		}
	}
}

// TestWorkersFanOutMatchesSerial runs each plannable strategy serially and
// with several worker counts over a multi-segment relation; the fan-out must
// be invisible in the results.
func TestWorkersFanOutMatchesSerial(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 6), 5*opSegCap+13, 17)
	rel := storage.BuildRowMajorSeg(tb, false, opSegCap)
	qs := []*query.Query{
		query.Projection("R", []data.AttrID{0, 2}, query.PredGt(1, 0)),
		query.Aggregation("R", expr.AggSum, []data.AttrID{1, 3}, query.PredLt(2, 0)),
		query.AggExpression("R", []data.AttrID{0, 4, 5}, query.PredGt(3, -1)),
		{Table: "R", Items: []query.SelectItem{
			{Expr: &expr.Col{ID: 1}},
			{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: 2}}},
		}, Where: query.PredGt(3, 0), GroupBy: []expr.Col{{ID: 1}}},
		func() *query.Query {
			q := query.Projection("R", []data.AttrID{0, 1}, query.PredGt(2, 0))
			q.Limit = opSegCap + 9
			return q
		}(),
	}
	strats := []Strategy{StrategyRow, StrategyColumn, StrategyHybrid, StrategyGeneric}
	for qi, q := range qs {
		for _, s := range strats {
			want, err := Exec(rel, q, ExecOpts{Strategy: s})
			if err == ErrUnsupported {
				continue
			}
			if err != nil {
				t.Fatalf("query %d strategy %v serial: %v", qi, s, err)
			}
			want = trimLimit(q, want)
			for _, workers := range []int{2, 4, 9} {
				got, err := Exec(rel, q, ExecOpts{Strategy: s, Workers: workers})
				if err != nil {
					t.Fatalf("query %d strategy %v workers=%d: %v", qi, s, workers, err)
				}
				if got = trimLimit(q, got); !got.Equal(want) {
					t.Fatalf("query %d strategy %v workers=%d diverged from serial: got %d rows, want %d",
						qi, s, workers, got.Rows, want.Rows)
				}
			}
		}
	}
}
