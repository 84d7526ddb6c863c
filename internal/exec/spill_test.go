package exec

import (
	"sync"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// installSnapshotLoader deep-copies every group's data and installs a
// loader that restores it, so tests can unload segments at will.
func installSnapshotLoader(rel *storage.Relation) {
	snap := make(map[*storage.ColumnGroup][]data.Value)
	for _, seg := range rel.Segments {
		for _, g := range seg.Groups {
			cp := make([]data.Value, len(g.Data))
			copy(cp, g.Data)
			snap[g] = cp
		}
	}
	rel.SetLoader(func(s *storage.Segment) error {
		for _, g := range s.Groups {
			g.Data = append([]data.Value(nil), snap[g]...)
		}
		return nil
	})
}

// unloadSealed spills every sealed segment, returning how many unloaded.
func unloadSealed(rel *storage.Relation) int {
	n := 0
	for _, seg := range rel.Segments {
		if seg.Unload() {
			n++
		}
	}
	return n
}

// TestAllStrategiesFaultSpilledSegments runs every execution strategy over
// a relation whose sealed segments are spilled, re-spilling between
// strategies, and demands bit-identical results to the fully resident run.
// This is the exec half of the tiered-storage acceptance gate: the loader
// callback is the only way back to the data, so any strategy that bypassed
// Acquire would crash or diverge here.
func TestAllStrategiesFaultSpilledSegments(t *testing.T) {
	const rows, segCap = 4_000, 500 // 8 segments
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), rows, 41)
	rel := storage.BuildColumnMajorSeg(tb, segCap)
	// Give segments a mixed layout so hybrid/row paths exercise coverage.
	if err := rel.MaterializeGroup([]data.AttrID{0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	installSnapshotLoader(rel)

	queries := []*query.Query{
		query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredLt(0, 1_200)),
		query.Aggregation("R", expr.AggMax, []data.AttrID{3}, nil),
		query.Projection("R", []data.AttrID{0, 4}, query.PredGt(0, 3_500)),
	}
	type strat struct {
		name string
		run  func(*query.Query) (*Result, error)
	}
	strategies := []strat{
		{"row", func(q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyRow})
		}},
		{"row-parallel", func(q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyRow, Workers: 4})
		}},
		{"column", func(q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyColumn})
		}},
		{"hybrid", func(q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyHybrid})
		}},
		{"generic", func(q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
		}},
	}

	for _, q := range queries {
		// Reference: fully resident run via the generic interpreter.
		want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
		if err != nil {
			t.Fatalf("%s: reference: %v", q, err)
		}
		for _, s := range strategies {
			unloadSealed(rel)
			for si, seg := range rel.Segments[:len(rel.Segments)-1] {
				if seg.Resident() {
					t.Fatalf("sealed segment %d still resident; test is not exercising spill", si)
				}
			}
			got, err := s.run(q)
			if err != nil {
				t.Fatalf("%s on spilled relation, query %s: %v", s.name, q, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s diverged on spilled relation for %s", s.name, q)
			}
		}
	}
}

// TestReorgPagesInBeforeStitching spills everything, then runs the online
// reorganizing executor over a hot mask: hot segments must fault in,
// stitch correctly, and cold pruned segments must stay on disk.
func TestReorgPagesInBeforeStitching(t *testing.T) {
	const rows, segCap = 4_000, 500
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), rows, 43)
	rel := storage.BuildColumnMajorSeg(tb, segCap)
	installSnapshotLoader(rel)

	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredGt(0, 3_499))
	want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	if unloadSealed(rel) == 0 {
		t.Fatal("nothing unloaded")
	}

	// Hot = the last two segments (the predicate's range); cold = rest.
	hot := make([]bool, len(rel.Segments))
	hot[len(hot)-1], hot[len(hot)-2] = true, true
	var newGroups []*storage.ColumnGroup
	res, err := Exec(rel, q, ExecOpts{Strategy: StrategyReorg, ReorgAttrs: []data.AttrID{0, 1, 2}, HotMask: hot, NewGroups: &newGroups})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(want) {
		t.Fatal("reorganizing execution diverged on spilled relation")
	}
	for si, g := range newGroups {
		if hot[si] && g == nil {
			t.Fatalf("hot segment %d produced no group", si)
		}
		if !hot[si] && g != nil {
			t.Fatalf("cold segment %d was stitched", si)
		}
	}
	// Cold segments pruned by the predicate must still be spilled: the
	// reorg never paged them in.
	for si, seg := range rel.Segments {
		if !hot[si] && si < len(rel.Segments)-3 && seg.Resident() {
			t.Fatalf("cold pruned segment %d was paged in during reorg", si)
		}
	}
}

// TestEncodedPinRacesFlatPin: a reader holding an encoded pin binds a
// demoted segment's columns while a flat pin decodes the same groups in.
// The reader's look at the flat data must be ordered with the decode; run
// with -race, an unordered read is reported. The reader pins first and
// keeps binding while the flat pin runs, so the decode lands inside its
// pin.
func TestEncodedPinRacesFlatPin(t *testing.T) {
	rel := storage.BuildColumnMajorSeg(data.GenerateTimeSeries(data.SyntheticSchema("R", 3), 2*eqSegCap, 5), eqSegCap)
	seg := rel.Segments[0]
	attrs := []data.AttrID{0, 1, 2}
	for i := 0; i < 100; i++ {
		if !seg.DemoteToEncoded() {
			t.Fatalf("round %d: sealed segment did not demote", i)
		}
		pinned := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := seg.AcquireEncoded()
			close(pinned)
			if err != nil {
				t.Error(err)
				return
			}
			defer seg.Release()
			for j := 0; j < 50; j++ {
				if _, ok, err := newEncReader(seg, attrs); err != nil || !ok {
					t.Errorf("encoded reader: ok=%v err=%v", ok, err)
					return
				}
			}
		}()
		<-pinned
		if _, err := seg.Acquire(); err != nil {
			t.Fatal(err)
		}
		seg.Release()
		wg.Wait()
	}
}
