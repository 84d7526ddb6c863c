package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"h2o/internal/costmodel"
	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

const (
	testAttrs = 12
	testRows  = 2000
)

func fixture(t *testing.T) (*data.Table, *storage.Relation, *storage.Relation, *storage.Relation) {
	t.Helper()
	tb := data.Generate(data.SyntheticSchema("R", testAttrs), testRows, 77)
	col := storage.BuildColumnMajor(tb)
	row := storage.BuildRowMajor(tb, false)
	grp, err := storage.BuildPartitioned(tb, [][]data.AttrID{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9, 10, 11}})
	if err != nil {
		t.Fatal(err)
	}
	return tb, col, row, grp
}

// queriesUnderTest returns a representative set of query shapes covering all
// four specialized templates, with and without predicates.
func queriesUnderTest() []*query.Query {
	someAttrs := []data.AttrID{1, 4, 8}
	wide := []data.AttrID{0, 2, 3, 5, 7, 9, 11}
	pred2 := query.ConjLtGt(6, 500_000_000, 10, -500_000_000)
	pred1 := query.PredLt(0, 0)
	pred3 := &expr.And{Terms: []expr.Pred{
		query.PredLt(0, 600_000_000).(*expr.Cmp),
		query.PredGt(1, -600_000_000).(*expr.Cmp),
		query.PredLt(2, 400_000_000).(*expr.Cmp),
	}}
	return []*query.Query{
		query.Projection("R", someAttrs, nil),
		query.Projection("R", someAttrs, pred1),
		query.Projection("R", wide, pred2),
		query.Aggregation("R", expr.AggMax, someAttrs, nil),
		query.Aggregation("R", expr.AggSum, wide, pred2),
		query.Aggregation("R", expr.AggMin, someAttrs, pred3),
		query.Aggregation("R", expr.AggCount, []data.AttrID{3}, pred1),
		query.Aggregation("R", expr.AggAvg, someAttrs, pred2),
		query.ArithExpression("R", someAttrs, nil),
		query.ArithExpression("R", wide, pred2),
		query.AggExpression("R", someAttrs, pred1),
		query.AggExpression("R", wide, nil),
		// avg over an expression: catches double-division bugs in strategies
		// that fold kernel results into aggregate states.
		{Table: "R", Items: []query.SelectItem{
			{Agg: &expr.Agg{Op: expr.AggAvg, Arg: expr.SumCols(someAttrs)}},
		}, Where: pred2},
		{Table: "R", Items: []query.SelectItem{
			{Agg: &expr.Agg{Op: expr.AggMax, Arg: expr.SumCols(someAttrs)}},
		}, Where: nil},
	}
}

// referenceExecute computes the expected result straight from the generator
// table with naive Go loops — an oracle independent of all kernels.
func referenceExecute(tb *data.Table, q *query.Query) *Result {
	get := func(r int) expr.Accessor {
		return func(a data.AttrID) data.Value { return tb.Cols[a][r] }
	}
	labels := make([]string, len(q.Items))
	states := make([]*expr.AggState, len(q.Items))
	hasAgg := q.HasAggregates()
	for i, it := range q.Items {
		labels[i] = it.String()
		if it.Agg != nil {
			states[i] = expr.NewAggState(it.Agg.Op)
		}
	}
	res := &Result{Cols: labels}
	for r := 0; r < tb.Rows; r++ {
		acc := get(r)
		if q.Where != nil && !q.Where.EvalBool(acc) {
			continue
		}
		if hasAgg {
			for i, it := range q.Items {
				states[i].Add(it.Agg.Arg.Eval(acc))
			}
		} else {
			for _, it := range q.Items {
				res.Data = append(res.Data, it.Expr.Eval(acc))
			}
			res.Rows++
		}
	}
	if hasAgg {
		res.Rows = 1
		res.Data = make([]data.Value, len(states))
		for i, s := range states {
			res.Data[i] = s.Result()
		}
	}
	return res
}

// TestAllStrategiesAgree is the core engine invariant: every execution
// strategy over every layout returns exactly the oracle's answer.
func TestAllStrategiesAgree(t *testing.T) {
	tb, col, row, grp := fixture(t)
	for qi, q := range queriesUnderTest() {
		want := referenceExecute(tb, q)

		type run struct {
			name string
			res  *Result
			err  error
		}
		rowRes, rowErr := Exec(row, q, ExecOpts{Strategy: StrategyRow})
		var runs []run
		runs = append(runs, run{"row-fused", rowRes, rowErr})
		for _, rel := range []*storage.Relation{col, row, grp} {
			r1, e1 := Exec(rel, q, ExecOpts{Strategy: StrategyColumn})
			runs = append(runs, run{"column-late/" + rel.Kind().String(), r1, e1})
			r2, e2 := Exec(rel, q, ExecOpts{Strategy: StrategyHybrid})
			runs = append(runs, run{"hybrid/" + rel.Kind().String(), r2, e2})
			r3, e3 := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
			runs = append(runs, run{"generic/" + rel.Kind().String(), r3, e3})
		}
		for _, r := range runs {
			if r.err != nil {
				t.Fatalf("query %d (%s) strategy %s: %v", qi, q, r.name, r.err)
			}
			if !r.res.Equal(want) {
				t.Fatalf("query %d (%s) strategy %s: result mismatch (got %v rows, want %v rows)",
					qi, q, r.name, r.res.Rows, want.Rows)
			}
		}
	}
}

func TestExecRowRequiresCoveringGroup(t *testing.T) {
	_, col, _, _ := fixture(t)
	q := query.Projection("R", []data.AttrID{0, 1}, nil)
	if _, err := ExecRow(col.Segments[0].Groups[0], q); err == nil {
		t.Fatal("ExecRow must reject a non-covering group")
	}
	if _, err := Exec(col, q, ExecOpts{Strategy: StrategyRow}); err == nil {
		t.Fatal("the row pipeline must reject a relation without a covering group per segment")
	}
}

func TestUnsupportedShapesFallThrough(t *testing.T) {
	_, col, row, _ := fixture(t)
	// Disjunctive predicate: specialized strategies must refuse; generic must
	// answer.
	or := &expr.Or{L: query.PredLt(0, 0).(*expr.Cmp), R: query.PredGt(1, 0).(*expr.Cmp)}
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{2}, or)
	if _, err := ExecRow(row.Segments[0].Groups[0], q); err != ErrUnsupported {
		t.Fatalf("ExecRow err = %v, want ErrUnsupported", err)
	}
	if _, err := Exec(col, q, ExecOpts{Strategy: StrategyColumn}); err != ErrUnsupported {
		t.Fatalf("column err = %v, want ErrUnsupported", err)
	}
	if _, err := Exec(col, q, ExecOpts{Strategy: StrategyHybrid}); err != ErrUnsupported {
		t.Fatalf("hybrid err = %v, want ErrUnsupported", err)
	}
	res, err := Exec(col, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 {
		t.Fatalf("generic result rows = %d", res.Rows)
	}
}

func TestExpressionPredicateViaGeneric(t *testing.T) {
	tb, col, _, _ := fixture(t)
	// (a1 + a2) > 0 — an expression predicate (paper §3.4 mentions this
	// class explicitly).
	p := &expr.Cmp{Op: expr.Gt, L: expr.SumCols([]data.AttrID{1, 2}), R: &expr.Const{V: 0}}
	q := query.Aggregation("R", expr.AggCount, []data.AttrID{0}, p)
	res, err := Exec(col, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for r := 0; r < tb.Rows; r++ {
		if tb.Cols[1][r]+tb.Cols[2][r] > 0 {
			want++
		}
	}
	if res.Data[0] != data.Value(want) {
		t.Fatalf("count = %d, want %d", res.Data[0], want)
	}
}

func TestSplitConjunction(t *testing.T) {
	p := query.ConjLtGt(3, 10, 4, 20)
	preds, ok := SplitConjunction(p)
	if !ok || len(preds) != 2 {
		t.Fatalf("SplitConjunction = %v, %v", preds, ok)
	}
	if preds[0] != (ColPred{Attr: 3, Op: expr.Lt, Val: 10}) {
		t.Fatalf("pred[0] = %+v", preds[0])
	}
	// Mirrored constant-first comparison.
	m := &expr.Cmp{Op: expr.Lt, L: &expr.Const{V: 5}, R: &expr.Col{ID: 2}} // 5 < a2 ≡ a2 > 5
	preds, ok = SplitConjunction(m)
	if !ok || preds[0].Op != expr.Gt || preds[0].Val != 5 {
		t.Fatalf("mirrored pred = %+v, %v", preds, ok)
	}
	// Nil predicate splits to empty.
	preds, ok = SplitConjunction(nil)
	if !ok || len(preds) != 0 {
		t.Fatal("nil predicate should split trivially")
	}
	// Non-splittable shapes.
	if _, ok := SplitConjunction(&expr.Or{L: m, R: m}); ok {
		t.Fatal("Or must not split")
	}
	exprCmp := &expr.Cmp{Op: expr.Gt, L: expr.SumCols([]data.AttrID{0, 1}), R: &expr.Const{V: 0}}
	if _, ok := SplitConjunction(exprCmp); ok {
		t.Fatal("expression comparison must not split")
	}
	if _, ok := SplitConjunction(&expr.And{Terms: []expr.Pred{exprCmp}}); ok {
		t.Fatal("And containing non-splittable term must not split")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		q    *query.Query
		kind OutKind
	}{
		{query.Projection("R", []data.AttrID{1, 2}, nil), OutProjection},
		// Aggregates without GROUP BY are the group with no keys.
		{query.Aggregation("R", expr.AggMax, []data.AttrID{1}, nil), OutGrouped},
		{query.ArithExpression("R", []data.AttrID{1, 2}, nil), OutExpression},
		{query.AggExpression("R", []data.AttrID{1, 2}, nil), OutGrouped},
		{&query.Query{Table: "R", Items: []query.SelectItem{
			{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Arith{Op: expr.Mul, L: &expr.Col{ID: 0}, R: &expr.Col{ID: 1}}}},
			{Agg: &expr.Agg{Op: expr.AggCount, Arg: &expr.Col{ID: 2}}},
		}}, OutGrouped}, // any argument expression, any number of items
		{&query.Query{Table: "R"}, OutOther},
		{&query.Query{Table: "R", Items: []query.SelectItem{
			{Expr: &expr.Arith{Op: expr.Mul, L: &expr.Col{ID: 0}, R: &expr.Col{ID: 1}}},
		}}, OutOther}, // products are not the sum template
		{&query.Query{Table: "R", Items: []query.SelectItem{
			{Expr: &expr.Col{ID: 0}},
			{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: 1}}},
		}}, OutOther}, // mixed select: a plain column outside GROUP BY keys
		{&query.Query{Table: "R", Items: []query.SelectItem{
			{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: 1}}},
			{Expr: &expr.Arith{Op: expr.Add, L: &expr.Col{ID: 0}, R: &expr.Col{ID: 1}}},
		}}, OutOther}, // mixed select: an expression beside an aggregate
		{&query.Query{Table: "R", GroupBy: []expr.Col{{ID: 2}}, Items: []query.SelectItem{
			{Expr: &expr.Col{ID: 0}},
			{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: 1}}},
		}}, OutOther}, // a plain column that is not a key
	}
	for i, c := range cases {
		got := Classify(c.q)
		if got.Kind != c.kind {
			t.Errorf("case %d: kind = %v, want %v", i, got.Kind, c.kind)
		}
		if got.Kind == OutGrouped && len(c.q.GroupBy) == 0 {
			if len(got.GroupBy) != 0 || len(got.GroupOps) != len(c.q.Items) {
				t.Errorf("case %d: scalar aggregate classified with keys %v and %d aggregates", i, got.GroupBy, len(got.GroupOps))
			}
			for _, ki := range got.ItemKey {
				if ki != -1 {
					t.Errorf("case %d: scalar item key %v", i, got.ItemKey)
				}
			}
		}
	}
	// A mixed select has no executor: the generic pipeline refuses it with
	// a definitive error, not ErrUnsupported and not a made-up row.
	tb := data.Generate(data.SyntheticSchema("R", 4), 10, 1)
	mixed := &query.Query{Table: "R", Items: []query.SelectItem{
		{Expr: &expr.Col{ID: 0}},
		{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: 1}}},
	}}
	for _, rel := range []*storage.Relation{storage.BuildColumnMajor(tb), storage.BuildRowMajor(tb, false)} {
		for _, s := range []Strategy{StrategyRow, StrategyColumn, StrategyHybrid, StrategyEncoded} {
			if _, err := Exec(rel, mixed, ExecOpts{Strategy: s}); err != ErrUnsupported {
				t.Errorf("%v on a mixed select: err = %v, want ErrUnsupported", s, err)
			}
		}
		if res, err := Exec(rel, mixed, ExecOpts{Strategy: StrategyGeneric}); err == nil || err == ErrUnsupported {
			t.Errorf("generic on a mixed select: result %v, err = %v, want a definitive error", res, err)
		}
	}
	// A single column is a projection, not an expression.
	if got := Classify(query.Projection("R", []data.AttrID{5}, nil)); got.Kind != OutProjection {
		t.Errorf("single column = %v", got.Kind)
	}
	for _, k := range []OutKind{OutProjection, OutExpression, OutGrouped, OutOther} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestSumLeaves(t *testing.T) {
	attrs, ok := SumLeaves(expr.SumCols([]data.AttrID{3, 1, 3}))
	if !ok || !reflect.DeepEqual(attrs, []data.AttrID{3, 1, 3}) {
		t.Fatalf("SumLeaves = %v, %v (duplicates must survive)", attrs, ok)
	}
	if _, ok := SumLeaves(&expr.Const{V: 1}); ok {
		t.Fatal("constants are not sum leaves")
	}
	if _, ok := SumLeaves(&expr.Arith{Op: expr.Sub, L: &expr.Col{ID: 0}, R: &expr.Col{ID: 1}}); ok {
		t.Fatal("subtraction is not the sum template")
	}
}

func TestFilterKernelsAllOps(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 2), 500, 3)
	g := storage.BuildGroup(tb, []data.AttrID{0, 1})
	for _, op := range []expr.CmpOp{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq, expr.Ne} {
		val := tb.Cols[0][123] // guarantees at least one Eq match
		sel := FilterGroup(g, []GroupPred{{Off: 0, Op: op, Val: val}}, 0, g.Rows, nil)
		want := 0
		for r := 0; r < g.Rows; r++ {
			if expr.Compare(op, tb.Cols[0][r], val) {
				want++
			}
		}
		if len(sel) != want {
			t.Fatalf("op %v: |sel| = %d, want %d", op, len(sel), want)
		}
		for _, r := range sel {
			if !expr.Compare(op, tb.Cols[0][r], val) {
				t.Fatalf("op %v: row %d should not qualify", op, r)
			}
		}
	}
}

func TestFilterGroupRange(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 1), 100, 5)
	g := storage.BuildGroup(tb, []data.AttrID{0})
	// No predicates: the range itself is the selection.
	sel := FilterGroup(g, nil, 10, 20, nil)
	if len(sel) != 20 || sel[0] != 10 || sel[19] != 29 {
		t.Fatalf("range selection wrong: %v", sel)
	}
}

func TestRefineSel(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 2), 1000, 9)
	g := storage.BuildGroup(tb, []data.AttrID{0, 1})
	all := FilterGroup(g, nil, 0, g.Rows, nil)
	refined := RefineSel(g, []GroupPred{{Off: 1, Op: expr.Gt, Val: 0}}, all)
	want := 0
	for r := 0; r < g.Rows; r++ {
		if tb.Cols[1][r] > 0 {
			want++
		}
	}
	if len(refined) != want {
		t.Fatalf("|refined| = %d, want %d", len(refined), want)
	}
}

func TestSumOffsetsKernels(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 6), 300, 13)
	g := storage.BuildGroup(tb, []data.AttrID{0, 1, 2, 3, 4, 5})
	for _, k := range []int{1, 2, 3, 5} {
		offs := make([]int, k)
		for i := range offs {
			offs[i] = i
		}
		out := make([]data.Value, g.Rows)
		SumOffsetsAll(g, offs, out)
		for r := 0; r < g.Rows; r++ {
			var want data.Value
			for a := 0; a < k; a++ {
				want += tb.Cols[a][r]
			}
			if out[r] != want {
				t.Fatalf("k=%d SumOffsetsAll row %d: %d != %d", k, r, out[r], want)
			}
		}
		sel := []int32{3, 50, 299}
		outSel := make([]data.Value, len(sel))
		SumOffsetsSel(g, offs, sel, outSel)
		for i, r := range sel {
			var want data.Value
			for a := 0; a < k; a++ {
				want += tb.Cols[a][int(r)]
			}
			if outSel[i] != want {
				t.Fatalf("k=%d SumOffsetsSel idx %d wrong", k, i)
			}
		}
	}
}

func TestReorgAnswersAndBuilds(t *testing.T) {
	tb, col, row, grp := fixture(t)
	q := query.AggExpression("R", []data.AttrID{2, 5, 9}, query.ConjLtGt(1, 400_000_000, 7, -400_000_000))
	want := referenceExecute(tb, q)
	for _, rel := range []*storage.Relation{col, row, grp} {
		attrs := q.AllAttrs()
		var groups []*storage.ColumnGroup
		res, err := Exec(rel, q, ExecOpts{Strategy: StrategyReorg, ReorgAttrs: attrs, NewGroups: &groups})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equal(want) {
			t.Fatalf("reorg result mismatch on %v", rel.Kind())
		}
		if len(groups) != len(rel.Segments) || groups[0] == nil {
			t.Fatalf("expected one new group per segment, got %v", groups)
		}
		g := groups[0]
		if !reflect.DeepEqual(g.Attrs, attrs) {
			t.Fatalf("new group attrs = %v, want %v", g.Attrs, attrs)
		}
		// The new group must hold exactly the source data.
		for r := 0; r < 50; r++ {
			for _, a := range attrs {
				if g.Value(r, a) != tb.Value(r, a) {
					t.Fatalf("reorg corrupted data at (%d,%d)", r, a)
				}
			}
		}
	}
}

func TestReorgWiderThanQuery(t *testing.T) {
	tb, col, _, _ := fixture(t)
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
	attrs := []data.AttrID{1, 2, 3, 4} // build a wider group than the query needs
	var groups []*storage.ColumnGroup
	res, err := Exec(col, q, ExecOpts{Strategy: StrategyReorg, ReorgAttrs: attrs, NewGroups: &groups})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(referenceExecute(tb, q)) {
		t.Fatal("result wrong when group is wider than query")
	}
	if groups[0].Width != 4 {
		t.Fatalf("group width = %d", groups[0].Width)
	}
}

func TestReorgGenericFallback(t *testing.T) {
	tb, col, _, _ := fixture(t)
	or := &expr.Or{L: query.PredLt(0, 0).(*expr.Cmp), R: query.PredGt(1, 0).(*expr.Cmp)}
	q := query.Aggregation("R", expr.AggCount, []data.AttrID{2}, or)
	var groups []*storage.ColumnGroup
	res, err := Exec(col, q, ExecOpts{Strategy: StrategyReorg, ReorgAttrs: q.AllAttrs(), NewGroups: &groups})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equal(referenceExecute(tb, q)) {
		t.Fatal("fallback reorg result wrong")
	}
	if len(groups) == 0 || groups[0] == nil || !groups[0].HasAll(q.AllAttrs()) {
		t.Fatal("fallback must still build the group")
	}
}

func TestAccessPlans(t *testing.T) {
	_, col, row, grp := fixture(t)
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 5, 9}, query.PredLt(0, 0))
	// Row plan requires a covering group.
	if AccessPlan(StrategyRow, col, q, 0.5) != nil {
		t.Fatal("row plan should be unavailable on a column layout")
	}
	if plan := AccessPlan(StrategyRow, row, q, 0.5); len(plan) != 1 || plan[0].Stride != testAttrs {
		t.Fatalf("row plan wrong: %+v", plan)
	}
	// Column plan touches one access per attribute (pred + selects).
	if plan := AccessPlan(StrategyColumn, col, q, 0.5); len(plan) != 4 {
		t.Fatalf("column plan has %d accesses, want 4", len(plan))
	}
	// Hybrid plan on the 3-group layout touches the covering groups.
	plan := AccessPlan(StrategyHybrid, grp, q, 0.5)
	if len(plan) == 0 || len(plan) > 3 {
		t.Fatalf("hybrid plan has %d accesses", len(plan))
	}
	// Generic must be costed above hybrid (interpretation overhead).
	if len(AccessPlan(StrategyGeneric, grp, q, 0.5)) == 0 {
		t.Fatal("generic plan missing")
	}
	for _, s := range []Strategy{StrategyRow, StrategyColumn, StrategyHybrid, StrategyGeneric, StrategyReorg, Strategy(99)} {
		if s.String() == "" {
			t.Fatal("empty strategy name")
		}
	}
	checkScalarPlans(t, col, row, grp)
}

// TestHybridNeverBeatsRowWhenCovered: wherever one group per segment
// covers the query, the hybrid plan costs no less than the row plan under
// the default cost model, so the chooser (which gives ties to row) never
// picks hybrid there. The engine's execution plan relies on it: it fans
// out a parallel fused scan only for a chosen row plan.
func TestHybridNeverBeatsRowWhenCovered(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", testAttrs), testRows, 77)
	all := make([]data.AttrID, testAttrs)
	for a := range all {
		all[a] = a
	}
	low := all[:8]
	layout := func(parts ...[]data.AttrID) *storage.Relation {
		rel, err := storage.BuildPartitioned(tb, parts)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	// Mixed: column-major segments, each stitched with the full-width
	// group, and half of them also with a narrower group over a0..a7.
	mixed := storage.BuildColumnMajorSeg(tb, testRows/4)
	for si, seg := range mixed.Segments {
		stitch := [][]data.AttrID{all}
		if si%2 == 1 {
			stitch = append(stitch, low)
		}
		for _, attrs := range stitch {
			g, err := storage.StitchSeg(seg, attrs)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.AddGroup(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	rels := map[string]*storage.Relation{
		"row":          storage.BuildRowMajor(tb, false),
		"padded-row":   storage.BuildRowMajor(tb, true),
		"groups+row":   layout([]data.AttrID{0, 1, 2, 3}, []data.AttrID{4, 5, 6}, []data.AttrID{7, 8, 9, 10, 11}, all),
		"nested-cover": layout(low, all),
		"mixed":        mixed,
	}
	grouped := &query.Query{Table: "R", Where: query.PredLt(0, 0), GroupBy: []expr.Col{{ID: 2}}, Items: []query.SelectItem{
		{Expr: &expr.Col{ID: 2}},
		{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: 5}}},
		{Agg: &expr.Agg{Op: expr.AggCount, Arg: &expr.Col{ID: 9}}},
	}}
	shapes := append(append(queriesUnderTest(), scalarPlanShapes()...), grouped)
	m := costmodel.New(costmodel.Default())
	for name, rel := range rels {
		for _, q := range shapes {
			if !RowCovered(rel, q) {
				t.Fatalf("%s: %s not row-covered", name, q)
			}
			for _, sel := range []float64{0.01, 0.25, 1} {
				row, hybrid := AccessPlan(StrategyRow, rel, q, sel), AccessPlan(StrategyHybrid, rel, q, sel)
				if row == nil || hybrid == nil {
					t.Fatalf("%s: %s: row plan %v, hybrid plan %v", name, q, row, hybrid)
				}
				if rc, hc := m.QueryCost(row), m.QueryCost(hybrid); hc < rc {
					t.Errorf("%s: %s at selectivity %v: hybrid costs %v < row %v", name, q, sel, hc, rc)
				}
			}
		}
	}
}

// scalarPlanShapes are the repository benchmark's scalar select shapes:
// its fresh scalar aggregate (sum, count and max under an a0 range), its
// sum of columns, and a multi-aggregate over six columns.
func scalarPlanShapes() []*query.Query {
	agg := func(op expr.AggOp, a data.AttrID) query.SelectItem {
		return query.SelectItem{Agg: &expr.Agg{Op: op, Arg: &expr.Col{ID: a}}}
	}
	a0Range := &expr.And{Terms: []expr.Pred{
		&expr.Cmp{Op: expr.Ge, L: &expr.Col{ID: 0}, R: &expr.Const{V: -100_000_000}},
		&expr.Cmp{Op: expr.Lt, L: &expr.Col{ID: 0}, R: &expr.Const{V: 100_000_000}},
	}}
	return []*query.Query{
		{Table: "R", Where: a0Range, Items: []query.SelectItem{agg(expr.AggSum, 3), agg(expr.AggCount, 0), agg(expr.AggMax, 4)}},
		query.AggExpression("R", []data.AttrID{1, 5, 9, 11}, query.PredLt(6, 500_000_000)),
		{Table: "R", Where: query.PredLt(0, 0), Items: []query.SelectItem{
			agg(expr.AggSum, 1), agg(expr.AggMax, 2), agg(expr.AggMin, 4),
			agg(expr.AggCount, 7), agg(expr.AggAvg, 9), agg(expr.AggSum, 10),
		}},
	}
}

// planString renders an access plan compactly and exactly: one
// {stride width used rows selectivity intermediates} tuple per access.
func planString(plan []costmodel.GroupAccess) string {
	if plan == nil {
		return "nil"
	}
	var b strings.Builder
	for _, a := range plan {
		fmt.Fprintf(&b, "{%d %d %d %d %v %d}", a.Stride, a.Width, a.Used, a.Rows, a.Selectivity, a.IntermediateWords)
	}
	return b.String()
}

// checkScalarPlans pins the exact access plans of every costed strategy
// for the benchmark's scalar shapes on row-major, column-major,
// three-group and per-segment mixed layouts, so the chooser's picks for
// them stay where they are.
func checkScalarPlans(t *testing.T, col, row, grp *storage.Relation) {
	t.Helper()
	tb := data.Generate(data.SyntheticSchema("R", testAttrs), testRows, 77)
	mixed := storage.BuildColumnMajorSeg(tb, testRows/4)
	all := make([]data.AttrID, testAttrs)
	for a := range all {
		all[a] = a
	}
	for _, si := range []int{0, 2} {
		g, err := storage.StitchSeg(mixed.Segments[si], all)
		if err != nil {
			t.Fatal(err)
		}
		if err := mixed.Segments[si].AddGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	rels := []*storage.Relation{row, col, grp, mixed}
	want := scalarPlanWant
	var got []string
	for _, q := range scalarPlanShapes() {
		for _, s := range CostedStrategies() {
			for _, rel := range rels {
				got = append(got, planString(AccessPlan(s, rel, q, 0.25)))
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d plans, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			shape, rest := i/(3*len(rels)), i%(3*len(rels))
			t.Errorf("%s: %v on layout %d: plan %s, want %s", scalarPlanShapes()[shape], CostedStrategies()[rest/len(rels)], rest%len(rels), got[i], want[i])
		}
	}
}

// scalarPlanWant lists checkScalarPlans' expected plans: per shape, per
// costed strategy (row, hybrid, column), the row-major, column-major,
// three-group and mixed layouts.
var scalarPlanWant = []string{
	"{12 12 3 2000 1 0}",
	"nil",
	"nil",
	"nil",
	"{12 12 3 2000 1 250}",
	"{1 1 1 2000 1 250}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}",
	"{4 4 2 2000 1 250}{3 3 1 2000 0.25 0}",
	"{12 12 3 500 1 62}{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{12 12 3 500 1 62}{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}",
	"{12 12 1 2000 1 250}{12 12 1 2000 0.25 0}{12 12 1 2000 0.25 0}{12 12 1 2000 0.25 0}",
	"{1 1 1 2000 1 250}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}",
	"{4 4 1 2000 1 250}{4 4 1 2000 0.25 0}{4 4 1 2000 0.25 0}{3 3 1 2000 0.25 0}",
	"{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}",
	"{12 12 5 2000 1 0}",
	"nil",
	"nil",
	"nil",
	"{12 12 5 2000 1 1250}",
	"{1 1 1 2000 0.25 1000}{1 1 1 2000 0.25 1000}{1 1 1 2000 1 1250}{1 1 1 2000 0.25 1000}{1 1 1 2000 0.25 1000}",
	"{3 3 2 2000 1 1250}{5 5 2 2000 0.25 1000}{4 4 1 2000 0.25 1000}",
	"{12 12 5 500 1 312}{1 1 1 500 0.25 250}{1 1 1 500 0.25 250}{1 1 1 500 1 312}{1 1 1 500 0.25 250}{1 1 1 500 0.25 250}{12 12 5 500 1 312}{1 1 1 500 0.25 250}{1 1 1 500 0.25 250}{1 1 1 500 1 312}{1 1 1 500 0.25 250}{1 1 1 500 0.25 250}",
	"{12 12 1 2000 1 250}{12 12 1 2000 0.25 500}{12 12 1 2000 0.25 500}{12 12 1 2000 0.25 500}{12 12 1 2000 0.25 500}",
	"{1 1 1 2000 1 250}{1 1 1 2000 0.25 500}{1 1 1 2000 0.25 500}{1 1 1 2000 0.25 500}{1 1 1 2000 0.25 500}",
	"{3 3 1 2000 1 250}{4 4 1 2000 0.25 500}{3 3 1 2000 0.25 500}{5 5 1 2000 0.25 500}{5 5 1 2000 0.25 500}",
	"{1 1 1 500 1 62}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 1 62}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 1 62}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 1 62}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}{1 1 1 500 0.25 125}",
	"{12 12 7 2000 1 0}",
	"nil",
	"nil",
	"nil",
	"{12 12 7 2000 1 250}",
	"{1 1 1 2000 1 250}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}",
	"{4 4 3 2000 1 250}{5 5 3 2000 0.25 0}{3 3 1 2000 0.25 0}",
	"{12 12 7 500 1 62}{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{12 12 7 500 1 62}{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}",
	"{12 12 1 2000 1 250}{12 12 1 2000 0.25 0}{12 12 1 2000 0.25 0}{12 12 1 2000 0.25 0}{12 12 1 2000 0.25 0}{12 12 1 2000 0.25 0}{12 12 1 2000 0.25 0}",
	"{1 1 1 2000 1 250}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}{1 1 1 2000 0.25 0}",
	"{4 4 1 2000 1 250}{4 4 1 2000 0.25 0}{4 4 1 2000 0.25 0}{3 3 1 2000 0.25 0}{5 5 1 2000 0.25 0}{5 5 1 2000 0.25 0}{5 5 1 2000 0.25 0}",
	"{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 1 62}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}{1 1 1 500 0.25 0}",
}

// Property: for random single-predicate aggregation queries, row, column,
// hybrid and generic strategies agree with each other.
func TestStrategiesAgreeProperty(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 8), 512, 21)
	col := storage.BuildColumnMajor(tb)
	row := storage.BuildRowMajor(tb, false)
	rng := rand.New(rand.NewSource(5))
	f := func(predAttrRaw, k uint8, cut int64, gtFlag bool) bool {
		predAttr := int(predAttrRaw) % 8
		attrs := query.RandomAttrs(8, 1+int(k)%4, rng.Intn)
		var p expr.Pred
		if gtFlag {
			p = query.PredGt(predAttr, cut%data.ValueHi)
		} else {
			p = query.PredLt(predAttr, cut%data.ValueHi)
		}
		q := query.Aggregation("R", expr.AggSum, attrs, p)
		a, err1 := Exec(row, q, ExecOpts{Strategy: StrategyRow})
		b, err2 := Exec(col, q, ExecOpts{Strategy: StrategyColumn})
		c, err3 := Exec(col, q, ExecOpts{Strategy: StrategyHybrid})
		d, err4 := Exec(row, q, ExecOpts{Strategy: StrategyGeneric})
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return a.Equal(b) && b.Equal(c) && c.Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestResultAccessors(t *testing.T) {
	r := &Result{Cols: []string{"x", "y"}, Rows: 2, Data: []data.Value{1, 2, 3, 4}}
	if r.Width() != 2 || r.At(1, 0) != 3 {
		t.Fatal("accessors wrong")
	}
	if !reflect.DeepEqual(r.Row(1), []data.Value{3, 4}) {
		t.Fatal("Row wrong")
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
	o := &Result{Cols: []string{"x", "y"}, Rows: 2, Data: []data.Value{1, 2, 3, 5}}
	if r.Equal(o) {
		t.Fatal("Equal missed a differing value")
	}
	if r.Equal(&Result{Cols: []string{"x"}, Rows: 2, Data: []data.Value{1, 2}}) {
		t.Fatal("Equal missed shape difference")
	}
}
