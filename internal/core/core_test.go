package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"h2o/internal/affinity"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

const (
	tAttrs = 30
	tRows  = 20_000
)

func table(t *testing.T) *data.Table {
	t.Helper()
	return data.Generate(data.SyntheticSchema("R", tAttrs), tRows, 1234)
}

// reference computes the expected result with naive loops.
func reference(tb *data.Table, q *query.Query) *exec.Result {
	rel := storage.BuildRowMajor(tb, false)
	res, err := exec.Exec(rel, q, exec.ExecOpts{Strategy: exec.StrategyGeneric})
	if err != nil {
		panic(err)
	}
	return res
}

func hotQueries(n int) []*query.Query {
	hot := []data.AttrID{2, 5, 9, 14}
	rng := rand.New(rand.NewSource(7))
	out := make([]*query.Query, n)
	for i := range out {
		// Same hot attribute set with varying predicate constants.
		out[i] = query.Aggregation("R", expr.AggSum, hot, query.PredLt(hot[0], rng.Int63n(2*data.ValueHi)-data.ValueHi))
	}
	return out
}

func TestAdaptiveEngineCorrectness(t *testing.T) {
	tb := table(t)
	e := NewH2O(tb, DefaultOptions())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		attrs := query.RandomAttrs(tAttrs, 1+rng.Intn(6), rng.Intn)
		var q *query.Query
		switch i % 4 {
		case 0:
			q = query.Projection("R", attrs, query.PredGt(rng.Intn(tAttrs), 0))
		case 1:
			q = query.Aggregation("R", expr.AggMax, attrs, nil)
		case 2:
			q = query.ArithExpression("R", attrs, query.PredLt(rng.Intn(tAttrs), 0))
		default:
			q = query.AggExpression("R", attrs, nil)
		}
		res, info, err := e.Execute(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want := reference(tb, q); !res.Equal(want) {
			t.Fatalf("query %d (%s, strategy %v): wrong result", i, q, info.Strategy)
		}
	}
	if e.Stats().Queries != 60 {
		t.Fatalf("stats.Queries = %d", e.Stats().Queries)
	}
}

func TestAdaptiveEngineReorganizes(t *testing.T) {
	tb := table(t)
	opts := DefaultOptions()
	opts.Window.InitialSize = 10
	e := NewH2O(tb, opts)

	queries := hotQueries(40)
	sawReorg := false
	for i, q := range queries {
		res, info, err := e.Execute(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if info.Reorganized {
			sawReorg = true
			if len(info.NewGroup) == 0 {
				t.Fatal("reorg reported without a new group")
			}
			if !res.Equal(reference(tb, q)) {
				t.Fatalf("reorganizing query %d returned a wrong result", i)
			}
		}
	}
	if !sawReorg {
		t.Fatal("hot repeated pattern never triggered online reorganization")
	}
	st := e.Stats()
	if st.Adaptations == 0 || st.Reorgs == 0 || st.GroupsCreated == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// After reorganization the hot queries must run on the new group with
	// the fused row strategy.
	_, info, err := e.Execute(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != exec.StrategyRow {
		t.Fatalf("post-reorg strategy = %v, want row-fused over the new group", info.Strategy)
	}
	// The created group must hold correct data.
	g, ok := e.Relation().ExactGroup([]data.AttrID{2, 5, 9, 14})
	if !ok {
		t.Fatalf("expected group {2,5,9,14}; layout: %s", e.Relation().LayoutSignature())
	}
	for r := 0; r < 100; r++ {
		for _, a := range g.Attrs {
			if g.Value(r, a) != tb.Value(r, a) {
				t.Fatal("new group corrupted data")
			}
		}
	}
}

func TestStaticModesNeverAdapt(t *testing.T) {
	tb := table(t)
	for _, mk := range []func() *Engine{
		func() *Engine { return NewRowStore(tb, true) },
		func() *Engine { return NewColumnStore(tb) },
	} {
		e := mk()
		groupsBefore := len(e.Relation().Segments[0].Groups)
		for _, q := range hotQueries(30) {
			res, info, err := e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if info.Reorganized {
				t.Fatalf("%v engine reorganized", e.opts.Mode)
			}
			if !res.Equal(reference(tb, q)) {
				t.Fatalf("%v engine wrong result", e.opts.Mode)
			}
		}
		st := e.Stats()
		if st.Adaptations != 0 || st.Reorgs != 0 {
			t.Fatalf("%v engine adapted: %+v", e.opts.Mode, st)
		}
		if len(e.Relation().Segments[0].Groups) != groupsBefore {
			t.Fatalf("%v engine changed its layout", e.opts.Mode)
		}
	}
}

func TestStaticStrategiesArePinned(t *testing.T) {
	tb := table(t)
	row := NewRowStore(tb, false)
	col := NewColumnStore(tb)
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
	_, info, err := row.Execute(q)
	if err != nil || info.Strategy != exec.StrategyRow {
		t.Fatalf("row engine strategy = %v err=%v", info.Strategy, err)
	}
	_, info, err = col.Execute(q)
	if err != nil || info.Strategy != exec.StrategyColumn {
		t.Fatalf("column engine strategy = %v err=%v", info.Strategy, err)
	}
}

func TestGenericFallbackForOddShapes(t *testing.T) {
	tb := table(t)
	e := NewH2O(tb, DefaultOptions())
	or := &expr.Or{L: query.PredLt(0, 0).(*expr.Cmp), R: query.PredGt(1, 0).(*expr.Cmp)}
	q := query.Aggregation("R", expr.AggCount, []data.AttrID{2}, or)
	res, info, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strategy != exec.StrategyGeneric {
		t.Fatalf("strategy = %v, want generic", info.Strategy)
	}
	if !res.Equal(reference(tb, q)) {
		t.Fatal("generic fallback computed a wrong result")
	}
}

func TestMaxGroupsEviction(t *testing.T) {
	tb := table(t)
	opts := DefaultOptions()
	opts.Window.InitialSize = 4
	opts.Window.MinSize = 2
	opts.MaxGroups = tAttrs + 2 // base columns + at most 2 extra groups
	e := NewH2O(tb, opts)
	rng := rand.New(rand.NewSource(3))
	// Rotate between several hot sets to force multiple group creations.
	sets := [][]data.AttrID{{0, 1, 2}, {5, 6, 7}, {10, 11, 12}, {15, 16, 17}, {20, 21, 22}}
	for round := 0; round < 10; round++ {
		for _, s := range sets {
			for i := 0; i < 6; i++ {
				q := query.Aggregation("R", expr.AggSum, s, query.PredLt(s[0], rng.Int63n(data.ValueHi)))
				if _, _, err := e.Execute(q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if got := len(e.Relation().Segments[0].Groups); got > opts.MaxGroups {
		t.Fatalf("groups = %d exceeds cap %d", got, opts.MaxGroups)
	}
	if e.Stats().GroupsCreated >= 3 && e.Stats().GroupsDropped == 0 {
		t.Fatalf("created %d groups but never evicted under a tight cap", e.Stats().GroupsCreated)
	}
	checkGroupCaps(t, e, opts.MaxGroups)

	// Byte cap: with the automatic count cap (which never binds here), wide
	// hot sets still may not pile up more than maxGroupBytesFactor × each
	// segment's flat size.
	opts.MaxGroups = 0
	e = NewH2O(tb, opts)
	var wide [][]data.AttrID
	for k := 0; k < 8; k++ {
		var s []data.AttrID
		for a := 0; a < 18; a++ {
			s = append(s, data.AttrID((k*7+a)%tAttrs))
		}
		wide = append(wide, s)
	}
	for round := 0; round < 6; round++ {
		for _, s := range wide {
			for i := 0; i < 6; i++ {
				q := query.Aggregation("R", expr.AggSum, s, query.PredLt(s[0], rng.Int63n(data.ValueHi)))
				if _, _, err := e.Execute(q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	checkGroupCaps(t, e, 2*tAttrs+16)
	st := e.Stats()
	if st.GroupsCreated < 5 {
		t.Fatalf("only %d groups created; the byte cap was never exercised", st.GroupsCreated)
	}
	if st.GroupsDropped == 0 {
		t.Fatalf("created %d wide groups but never evicted under the byte cap", st.GroupsCreated)
	}
}

// checkGroupCaps asserts every resident segment of e is within the count
// and byte caps and still stores every schema attribute.
func checkGroupCaps(t *testing.T, e *Engine, maxGroups int) {
	t.Helper()
	for si, seg := range e.Relation().Segments {
		if got := len(seg.Groups); got > maxGroups {
			t.Fatalf("segment %d: groups = %d exceeds cap %d", si, got, maxGroups)
		}
		flat := int64(seg.Rows) * tAttrs * 8
		if got := seg.Bytes(); got > maxGroupBytesFactor*flat {
			t.Fatalf("segment %d: group bytes %d exceed %d x flat size %d", si, got, maxGroupBytesFactor, flat)
		}
		for a := 0; a < tAttrs; a++ {
			if _, err := seg.GroupFor(data.AttrID(a)); err != nil {
				t.Fatalf("segment %d lost coverage of attribute %d: %v", si, a, err)
			}
		}
	}
}

func TestDynamicWindowAdaptsFasterThanStatic(t *testing.T) {
	tb := table(t)
	mk := func(dynamic bool) *Engine {
		opts := DefaultOptions()
		opts.Window = affinity.Config{
			InitialSize: 30, MinSize: 4, MaxSize: 60,
			NoveltyOverlap: 0.5, Dynamic: dynamic,
		}
		return NewH2O(tb, opts)
	}
	// Fig. 9's shape: 15 queries on one attribute set, then a shift. The
	// paper's Fig. 9 queries compute arithmetic expressions — the class
	// where merged groups beat per-column layouts.
	phase1 := []data.AttrID{1, 2, 3, 4}
	phase2 := []data.AttrID{20, 21, 22, 23}
	seq := make([]*query.Query, 0, 60)
	for i := 0; i < 15; i++ {
		seq = append(seq, query.AggExpression("R", phase1, nil))
	}
	for i := 0; i < 45; i++ {
		seq = append(seq, query.AggExpression("R", phase2, nil))
	}
	firstReorg := func(e *Engine) int {
		for i, q := range seq {
			_, info, err := e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if info.Reorganized && data.ContainsAll(info.NewGroup, phase2) {
				return i
			}
		}
		return len(seq)
	}
	dyn := firstReorg(mk(true))
	stat := firstReorg(mk(false))
	if dyn >= stat {
		t.Fatalf("dynamic window adapted at query %d, static at %d; dynamic must be earlier", dyn, stat)
	}
}

func TestOracleMatchesReference(t *testing.T) {
	tb := table(t)
	o := NewOracle(tb)
	qs := []*query.Query{
		query.Projection("R", []data.AttrID{1, 3}, query.PredLt(5, 0)),
		query.Aggregation("R", expr.AggMax, []data.AttrID{2, 8}, nil),
		query.AggExpression("R", []data.AttrID{0, 7, 9}, query.PredGt(4, 0)),
	}
	for _, q := range qs {
		res, d, err := o.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 {
			t.Fatal("negative duration")
		}
		if !res.Equal(reference(tb, q)) {
			t.Fatalf("oracle wrong for %s", q)
		}
	}
	// Repeated pattern reuses the cached perfect group.
	if _, _, err := o.Execute(qs[0]); err != nil {
		t.Fatal(err)
	}
	if len(o.cache) != 3 {
		t.Fatalf("oracle cache size = %d, want 3", len(o.cache))
	}
}

func TestSelectivityEstimateLearning(t *testing.T) {
	tb := table(t)
	e := NewH2O(tb, DefaultOptions())
	// A highly selective projection teaches the engine its true selectivity.
	cut := data.ValueLo + (data.ValueHi-data.ValueLo)/100
	q := query.Projection("R", []data.AttrID{1, 2}, query.PredLt(0, cut))
	if _, _, err := e.Execute(q); err != nil {
		t.Fatal(err)
	}
	got, ok := e.selEst[query.InfoOf(q).Pattern()]
	if !ok {
		t.Fatal("selectivity was not recorded")
	}
	if got < 0 || got > 0.05 {
		t.Fatalf("learned selectivity %.3f, expected ~0.01", got)
	}
}

func TestConcurrentExecute(t *testing.T) {
	tb := table(t)
	e := NewH2O(tb, DefaultOptions())
	qs := hotQueries(8)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				q := qs[(w+i)%len(qs)]
				res, _, err := e.Execute(q)
				if err != nil {
					done <- err
					return
				}
				if res.Rows != 1 {
					done <- fmt.Errorf("bad result shape %d", res.Rows)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Queries; got != 80 {
		t.Fatalf("queries counted = %d, want 80", got)
	}
}

func TestParallelismOption(t *testing.T) {
	tb := table(t)
	opts := DefaultOptions()
	opts.Parallelism = 4
	serialOpts := DefaultOptions()
	par := New(storage.BuildRowMajor(tb, false), opts)
	ser := New(storage.BuildRowMajor(tb, false), serialOpts)
	for _, q := range hotQueries(10) {
		rp, ip, err := par.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := ser.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !rp.Equal(rs) {
			t.Fatal("parallel engine disagrees with serial engine")
		}
		if ip.Strategy != exec.StrategyRow {
			t.Fatalf("row layout should use the row strategy, got %v", ip.Strategy)
		}
	}
}

func TestExplain(t *testing.T) {
	tb := table(t)
	e := NewH2O(tb, DefaultOptions())
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 5, 9}, query.PredLt(0, 0))
	ex, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Alternatives) < 2 {
		t.Fatalf("alternatives = %v", ex.Alternatives)
	}
	for i := 1; i < len(ex.Alternatives); i++ {
		if ex.Alternatives[i].Cost < ex.Alternatives[i-1].Cost {
			t.Fatal("alternatives not sorted by cost")
		}
	}
	if ex.Strategy != ex.Alternatives[0].Strategy {
		t.Fatal("chosen strategy must be the cheapest alternative")
	}
	if len(ex.CoveringGroups) == 0 {
		t.Fatal("no covering groups reported")
	}
	// Explain must not advance the engine.
	if e.Stats().Queries != 0 {
		t.Fatal("Explain executed the query")
	}
	// A pending proposal covering the query is surfaced.
	opts := DefaultOptions()
	opts.Window.InitialSize = 6
	e2 := NewH2O(tb, opts)
	// Drive enough hot queries to schedule an adaptation but pick a query
	// whose cost-model gain is too small to trigger reorganization (tiny
	// horizon), leaving the proposal pending.
	e2.opts.AmortizationHorizon = 1
	for _, q := range hotQueries(12) {
		if _, _, err := e2.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if len(e2.PendingProposals()) > 0 {
		ex2, err := e2.Explain(hotQueries(1)[0])
		if err != nil {
			t.Fatal(err)
		}
		if ex2.PendingProposal == nil {
			t.Fatal("pending proposal covering the query not surfaced")
		}
	}
}

func TestModeStrings(t *testing.T) {
	for _, m := range []Mode{ModeAdaptive, ModeStaticRow, ModeStaticColumn, ModeFrozen, Mode(42)} {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
}

// TestReorgWidthInvariant runs one adaptive query sequence — drifting hot
// attribute sets, with projections, expressions, scalar and grouped
// aggregates — over a relation of several segments under GOMAXPROCS 1 and
// 2. Online reorganization fans out across GOMAXPROCS, so the two runs
// reorganize at different widths; they must give identical answers, the
// same final layout and the same reorganization counters.
func TestReorgWidthInvariant(t *testing.T) {
	tb := table(t)
	for r := 0; r < tb.Rows; r++ {
		tb.Cols[7][r] &= 15
	}
	queries := func() []*query.Query {
		rng := rand.New(rand.NewSource(49))
		sets := [][]data.AttrID{{2, 5, 9, 14}, {1, 7, 11, 20, 26}, {3, 7, 8, 17}}
		var qs []*query.Query
		for i := 0; i < 60; i++ {
			set := sets[(i/20)%len(sets)]
			where := query.PredLt(set[0], rng.Int63n(2*data.ValueHi)-data.ValueHi)
			switch i % 4 {
			case 0:
				qs = append(qs, query.Aggregation("R", expr.AggSum, set, where))
			case 1:
				qs = append(qs, query.ArithExpression("R", set, where))
			case 2:
				qs = append(qs, query.Projection("R", set, where))
			default:
				q := query.Aggregation("R", expr.AggMax, set[1:], where)
				q.GroupBy = []expr.Col{{ID: 7}}
				q.Items = append([]query.SelectItem{{Expr: &expr.Col{ID: 7}}}, q.Items...)
				qs = append(qs, q)
			}
		}
		return qs
	}()
	run := func(procs int) ([]*exec.Result, string, Stats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		opts := DefaultOptions()
		opts.Window.InitialSize = 10
		opts.MaxGroups = tAttrs + 2 // later reorganizations drop earlier groups
		e := New(storage.BuildColumnMajorSeg(tb, 7000), opts)
		var out []*exec.Result
		for i, q := range queries {
			res, _, err := e.Execute(q)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, query %d (%s): %v", procs, i, q, err)
			}
			out = append(out, res)
		}
		// Every group left, stitched at either width, must hold the
		// table's values.
		base := 0
		for si, seg := range e.Relation().Segments {
			for _, g := range seg.Groups {
				for r := 0; r < seg.Rows; r++ {
					for _, a := range g.Attrs {
						if got, want := g.Value(r, a), tb.Value(base+r, a); got != want {
							t.Fatalf("GOMAXPROCS %d: segment %d group %v row %d a%d = %d, want %d", procs, si, g.Attrs, r, a, got, want)
						}
					}
				}
			}
			base += seg.Rows
		}
		return out, e.Relation().LayoutSignature(), e.Stats()
	}
	serial, serialLayout, serialStats := run(1)
	if serialStats.Reorgs == 0 {
		t.Fatalf("the sequence never reorganized: %+v", serialStats)
	}
	t.Logf("serial: %d reorgs, %d groups created, %d dropped; layout %s", serialStats.Reorgs, serialStats.GroupsCreated, serialStats.GroupsDropped, serialLayout)
	par, parLayout, parStats := run(2)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Fatalf("query %d (%s): GOMAXPROCS 2 answered %v, 1 answered %v", i, queries[i], par[i].Data, serial[i].Data)
		}
		if want := reference(tb, queries[i]); !serial[i].Equal(want) {
			t.Fatalf("query %d (%s): wrong result", i, queries[i])
		}
	}
	if parLayout != serialLayout {
		t.Fatalf("layout under GOMAXPROCS 2:\n%s\nunder 1:\n%s", parLayout, serialLayout)
	}
	if parStats.Reorgs != serialStats.Reorgs || parStats.GroupsCreated != serialStats.GroupsCreated || parStats.GroupsDropped != serialStats.GroupsDropped {
		t.Fatalf("stats under GOMAXPROCS 2 %+v, under 1 %+v", parStats, serialStats)
	}
}

// TestEvictionFreesDroppedGroups: groups that evictIfNeeded drops become
// unreachable once the engine lets go of them (the segment's group slice
// keeps no stale copy of a dropped pointer).
func TestEvictionFreesDroppedGroups(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 6), 1_000, 5)
	opts := DefaultOptions()
	opts.Mode = ModeFrozen
	opts.MaxGroups = 6 // the six columns; every extra group is over the cap
	e := New(storage.BuildColumnMajor(tb), opts)
	seg := e.rel.Segments[0]
	var freed atomic.Int32
	func() {
		for _, g := range seg.Groups {
			e.lastUsed[g] = 10 // columns stay most recently used
		}
		for i, attrs := range [][]data.AttrID{{0, 1}, {2, 3}} {
			g, err := storage.StitchSeg(seg, attrs)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.AddGroup(g); err != nil {
				t.Fatal(err)
			}
			e.lastUsed[g] = i // {0, 1} is evicted first, then {2, 3}
			runtime.SetFinalizer(g, func(*storage.ColumnGroup) { freed.Add(1) })
		}
	}()
	e.evictIfNeeded()
	if got := e.Stats().GroupsDropped; got != 2 {
		t.Fatalf("GroupsDropped = %d, want 2", got)
	}
	for i := 0; i < 50 && freed.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != 2 {
		t.Fatalf("%d of 2 evicted groups were collected; the rest are still reachable", got)
	}
	runtime.KeepAlive(e)
}
