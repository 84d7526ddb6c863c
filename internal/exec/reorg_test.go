package exec

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// reorgTable is an 8-attribute table of rows tuples whose a4 and a6 hold
// 8 and 4 distinct values, the group keys of the reorganization tests.
func reorgTable(rows int, seed int64) *data.Table {
	tb := data.Generate(data.SyntheticSchema("R", 8), rows, seed)
	for r := 0; r < rows; r++ {
		tb.Cols[4][r] &= 7
		tb.Cols[6][r] &= 3
	}
	return tb
}

// reorgLayouts are the source layouts a reorganization stitches from:
// plain columns, a prior wide group beside the columns, and one padded row
// group. Each relation is one segment of every row.
var reorgLayouts = []struct {
	name  string
	build func(tb *data.Table) *storage.Relation
}{
	{"columns", func(tb *data.Table) *storage.Relation {
		return storage.BuildColumnMajorSeg(tb, tb.Rows)
	}},
	{"wide-plus-columns", func(tb *data.Table) *storage.Relation {
		groups := []*storage.ColumnGroup{storage.BuildGroup(tb, []data.AttrID{1, 2, 3, 5})}
		for a := 0; a < tb.Schema.NumAttrs(); a++ {
			groups = append(groups, storage.BuildGroup(tb, []data.AttrID{a}))
		}
		rel, err := storage.NewRelationSeg(tb.Schema, tb.Rows, groups, tb.Rows)
		if err != nil {
			panic(err)
		}
		return rel
	}},
	{"padded-row", func(tb *data.Table) *storage.Relation {
		return storage.BuildRowMajorSeg(tb, true, tb.Rows)
	}},
}

func colExpr(a data.AttrID) expr.Expr { return &expr.Col{ID: a} }

func aggItem(op expr.AggOp, e expr.Expr) query.SelectItem {
	return query.SelectItem{Agg: &expr.Agg{Op: op, Arg: e}}
}

// reorgShapes are the output shapes of the reorganizing operator:
// projection, expression, scalar aggregates, and one- and two-key groups.
func reorgShapes(where expr.Pred) []*query.Query {
	sum := expr.SumCols([]data.AttrID{1, 3, 5})
	aggs := []query.SelectItem{
		aggItem(expr.AggSum, colExpr(1)), aggItem(expr.AggCount, colExpr(2)),
		aggItem(expr.AggMin, colExpr(3)), aggItem(expr.AggMax, colExpr(5)), aggItem(expr.AggAvg, sum),
	}
	grouped := func(keys ...data.AttrID) *query.Query {
		q := &query.Query{Table: "R", Where: where}
		for _, k := range keys {
			q.GroupBy = append(q.GroupBy, expr.Col{ID: k})
			q.Items = append(q.Items, query.SelectItem{Expr: colExpr(k)})
		}
		q.Items = append(q.Items, aggs...)
		return q
	}
	return []*query.Query{
		query.Projection("R", []data.AttrID{3, 1}, where),
		query.ArithExpression("R", []data.AttrID{1, 3, 5}, where),
		{Table: "R", Where: where, Items: aggs},
		grouped(4),
		grouped(4, 6),
	}
}

// checkReorgScan runs q on rel's one segment through the reorganizing
// strategy over q's attributes plus extra, and checks the answer against
// the generic strategy, and the stitched group — attributes, stride, data
// and zone map — against StitchSeg's, its zone map also against a
// rebuild.
func checkReorgScan(t *testing.T, rel *storage.Relation, q *query.Query, extra []data.AttrID) {
	t.Helper()
	attrs := data.Union(q.AllAttrs(), data.SortedUnique(extra))
	var groups []*storage.ColumnGroup
	got, err := Exec(rel, q, ExecOpts{Strategy: StrategyReorg, ReorgAttrs: attrs, NewGroups: &groups})
	if err != nil {
		t.Fatalf("%s: reorg: %v", q, err)
	}
	want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatalf("%s: generic: %v", q, err)
	}
	label := fmt.Sprintf("%s over %d rows, reorganized into %v", q, rel.Rows, attrs)
	if !got.Equal(want) {
		t.Fatalf("%s: reorg answered %v, generic %v", label, got.Data, want.Data)
	}
	seg := rel.Segments[0]
	if _, exact := seg.ExactGroup(attrs); exact {
		return
	}
	g := groups[0]
	ref, err := storage.StitchSeg(seg, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Attrs, ref.Attrs) || g.Stride != ref.Stride || g.Rows != ref.Rows || !reflect.DeepEqual(g.Data, ref.Data) {
		t.Fatalf("%s: stitched group %v (stride %d, %d rows) differs from StitchSeg's %v (stride %d, %d rows)",
			label, g.Attrs, g.Stride, g.Rows, ref.Attrs, ref.Stride, ref.Rows)
	}
	if !reflect.DeepEqual(g.Zones(), ref.Zones()) {
		t.Fatalf("%s: zone map %+v, StitchSeg's %+v", label, g.Zones(), ref.Zones())
	}
	if rebuilt := storage.BuildZoneMap(g, 0); !reflect.DeepEqual(g.Zones(), rebuilt) {
		t.Fatalf("%s: zone map %+v, rebuilt %+v", label, g.Zones(), rebuilt)
	}
}

// TestReorgScanMatchesStitch checks the chunked reorganizing operator on
// segments that end before, at and past chunk boundaries, over every
// source layout and output shape, with predicates that select no rows,
// every row, some rows, and some rows through two predicates.
func TestReorgScanMatchesStitch(t *testing.T) {
	cmp := func(op expr.CmpOp, a data.AttrID, v data.Value) expr.Pred {
		return &expr.Cmp{Op: op, L: &expr.Col{ID: a}, R: &expr.Const{V: v}}
	}
	for _, rows := range []int{1, 1023, 1024, 1025, 3067} {
		tb := reorgTable(rows, int64(rows))
		mid := tb.Cols[2][rows/2]
		preds := []expr.Pred{
			nil,
			cmp(expr.Lt, 2, math.MinInt64),
			cmp(expr.Ge, 2, math.MinInt64),
			cmp(expr.Lt, 2, mid),
			&expr.And{Terms: []expr.Pred{cmp(expr.Le, 2, mid), cmp(expr.Gt, 7, tb.Cols[7][0])}},
		}
		for _, layout := range reorgLayouts {
			rel := layout.build(tb)
			for _, where := range preds {
				for _, q := range reorgShapes(where) {
					checkReorgScan(t, rel, q, []data.AttrID{0})
				}
			}
		}
	}
}

// FuzzReorgScan draws a segment size across chunk boundaries, a source
// layout, a reorganization set covering the query, the aggregates' operators
// and the predicate's constant, and checks the reorganizing operator as
// TestReorgScanMatchesStitch does.
func FuzzReorgScan(f *testing.F) {
	f.Add(uint16(1025), uint8(0), uint8(0), uint8(0x1f), int64(0), uint8(0))
	f.Add(uint16(1), uint8(1), uint8(1), uint8(0x03), int64(math.MinInt64), uint8(0xff))
	f.Add(uint16(3067), uint8(2), uint8(3), uint8(0x14), int64(math.MaxInt64), uint8(0x55))
	f.Add(uint16(2048), uint8(1), uint8(4), uint8(0x0a), int64(-1<<40), uint8(0x81))
	f.Fuzz(func(t *testing.T, rows uint16, layout, shape, opBits uint8, c int64, extraBits uint8) {
		n := 1 + int(rows)%3200
		tb := reorgTable(n, int64(rows)^c)
		rel := reorgLayouts[int(layout)%len(reorgLayouts)].build(tb)
		ops := []expr.AggOp{expr.AggSum, expr.AggCount, expr.AggMin, expr.AggMax, expr.AggAvg}
		where := &expr.Cmp{Op: expr.CmpOp(int(opBits>>5) % 6), L: &expr.Col{ID: 2}, R: &expr.Const{V: data.Value(c)}}
		var q *query.Query
		switch shape % 5 {
		case 0:
			q = query.Projection("R", []data.AttrID{5, 1}, where)
		case 1:
			q = query.ArithExpression("R", []data.AttrID{1, 3, 7}, where)
		default:
			q = &query.Query{Table: "R", Where: where}
			for k := 0; k < int(shape%5)-2; k++ {
				key := data.AttrID(4 + 2*k)
				q.GroupBy = append(q.GroupBy, expr.Col{ID: key})
				q.Items = append(q.Items, query.SelectItem{Expr: colExpr(key)})
			}
			q.Items = append(q.Items,
				aggItem(ops[int(opBits)%len(ops)], colExpr(1)),
				aggItem(ops[int(opBits>>2)%len(ops)], expr.SumCols([]data.AttrID{3, 5, 7})))
		}
		var extra []data.AttrID
		for a := 0; a < 8; a++ {
			if extraBits&(1<<a) != 0 {
				extra = append(extra, a)
			}
		}
		checkReorgScan(t, rel, q, extra)
	})
}
