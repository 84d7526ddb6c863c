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
// group, cut into segments of segCap rows.
var reorgLayouts = []struct {
	name  string
	build func(tb *data.Table, segCap int) *storage.Relation
}{
	{"columns", func(tb *data.Table, segCap int) *storage.Relation {
		return storage.BuildColumnMajorSeg(tb, segCap)
	}},
	{"wide-plus-columns", func(tb *data.Table, segCap int) *storage.Relation {
		groups := []*storage.ColumnGroup{storage.BuildGroup(tb, []data.AttrID{1, 2, 3, 5})}
		for a := 0; a < tb.Schema.NumAttrs(); a++ {
			groups = append(groups, storage.BuildGroup(tb, []data.AttrID{a}))
		}
		rel, err := storage.NewRelationSeg(tb.Schema, tb.Rows, groups, segCap)
		if err != nil {
			panic(err)
		}
		return rel
	}},
	{"padded-row", func(tb *data.Table, segCap int) *storage.Relation {
		return storage.BuildRowMajorSeg(tb, true, segCap)
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

// checkReorgScan runs q on rel through the reorganizing strategy over q's
// attributes plus extra, stitching the segments hot marks (nil: every
// segment) serially, and checks the answer against the generic strategy and
// each stitched group — attributes, stride, data and zone map — against
// StitchSeg's, its zone map also against a rebuild; a segment left cold or
// already adapted gets none. It then reruns the pass with each worker count
// of workers and checks the answer and the groups bit for bit against the
// serial pass.
func checkReorgScan(t *testing.T, rel *storage.Relation, q *query.Query, extra []data.AttrID, hot []bool, workers ...int) {
	t.Helper()
	attrs := data.Union(q.AllAttrs(), data.SortedUnique(extra))
	reorg := func(workers int) (*Result, []*storage.ColumnGroup) {
		t.Helper()
		var groups []*storage.ColumnGroup
		res, err := Exec(rel, q, ExecOpts{Strategy: StrategyReorg, Workers: workers, ReorgAttrs: attrs, HotMask: hot, NewGroups: &groups})
		if err != nil {
			t.Fatalf("%s: reorg with %d workers: %v", q, workers, err)
		}
		return res, groups
	}
	label := func(workers int) string {
		return fmt.Sprintf("%s over %d rows in %d segments, reorganized into %v by %d workers", q, rel.Rows, len(rel.Segments), attrs, workers)
	}
	serial, serialGroups := reorg(1)
	want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatalf("%s: generic: %v", q, err)
	}
	if !serial.Equal(want) {
		t.Fatalf("%s: reorg answered %v, generic %v", label(1), serial.Data, want.Data)
	}
	for si, seg := range rel.Segments {
		g := serialGroups[si]
		_, exact := seg.ExactGroup(attrs)
		if exact || seg.Rows == 0 || (hot != nil && !hot[si]) {
			if g != nil {
				t.Fatalf("%s: segment %d stitched a group it should not have", label(1), si)
			}
			continue
		}
		ref, err := storage.StitchSeg(seg, attrs)
		if err != nil {
			t.Fatal(err)
		}
		checkSameGroup(t, label(1), si, g, "StitchSeg", ref)
		if rebuilt := storage.BuildZoneMap(g, 0); !reflect.DeepEqual(g.Zones(), rebuilt) {
			t.Fatalf("%s: segment %d zone map %+v, rebuilt %+v", label(1), si, g.Zones(), rebuilt)
		}
	}
	for _, w := range workers {
		got, groups := reorg(w)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("%s: answered %+v, the serial pass %+v", label(w), got, serial)
		}
		for si, g := range groups {
			if g == nil || serialGroups[si] == nil {
				if g != serialGroups[si] {
					t.Fatalf("%s: segment %d stitched %v, the serial pass %v", label(w), si, g, serialGroups[si])
				}
				continue
			}
			checkSameGroup(t, label(w), si, g, "the serial pass", serialGroups[si])
		}
	}
}

// checkSameGroup fails unless segment si's stitched group g has the
// attributes, stride, rows, data and zone map of want.
func checkSameGroup(t *testing.T, label string, si int, g *storage.ColumnGroup, name string, want *storage.ColumnGroup) {
	t.Helper()
	if !reflect.DeepEqual(g.Attrs, want.Attrs) || g.Stride != want.Stride || g.Rows != want.Rows || !reflect.DeepEqual(g.Data, want.Data) {
		t.Fatalf("%s: segment %d stitched group %v (stride %d, %d rows) differs from %s's %v (stride %d, %d rows)",
			label, si, g.Attrs, g.Stride, g.Rows, name, want.Attrs, want.Stride, want.Rows)
	}
	if !reflect.DeepEqual(g.Zones(), want.Zones()) {
		t.Fatalf("%s: segment %d zone map %+v, %s's %+v", label, si, g.Zones(), name, want.Zones())
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
			rel := layout.build(tb, tb.Rows)
			for _, where := range preds {
				for _, q := range reorgShapes(where) {
					checkReorgScan(t, rel, q, []data.AttrID{0}, nil)
				}
			}
		}
	}
}

// TestReorgScanParallel checks the range fan-out of the reorganizing
// operator: relations of several segments, each longer than one range,
// with a partial tail, every segment hot or only the middle one, at two to
// four workers, against the serial (one-worker) pass, which is checked
// against the generic strategy and StitchSeg.
func TestReorgScanParallel(t *testing.T) {
	const segCap = reorgRangeChunks*VectorSize + 700
	rows := 2*segCap + 3001
	tb := reorgTable(rows, 49)
	mid := tb.Cols[2][rows/3]
	where := &expr.Cmp{Op: expr.Lt, L: &expr.Col{ID: 2}, R: &expr.Const{V: mid}}
	// A predicate every zone map rules out: a6 holds 0–3, so a6 >= 4
	// prunes the cold segments and selects no row of the hot ones.
	none := &expr.Cmp{Op: expr.Ge, L: &expr.Col{ID: 6}, R: &expr.Const{V: 4}}
	for _, layout := range reorgLayouts {
		rel := layout.build(tb, segCap)
		if len(rel.Segments) != 3 {
			t.Fatalf("%s: %d segments, want 3", layout.name, len(rel.Segments))
		}
		for _, hot := range [][]bool{nil, {false, true, false}} {
			for _, w := range []expr.Pred{where, none} {
				for _, q := range reorgShapes(w) {
					checkReorgScan(t, rel, q, []data.AttrID{0}, hot, 2, 3, 4)
				}
			}
		}
	}
}

// FuzzReorgScan draws a relation size across chunk and range boundaries,
// a segment capacity that cuts it into one to several segments with a
// partial tail, a source layout, a reorganization set covering the query,
// the aggregates' operators, the predicate's constant, which segments are
// hot and the number of workers (one to four), and checks the
// reorganizing operator as TestReorgScanMatchesStitch and
// TestReorgScanParallel do.
func FuzzReorgScan(f *testing.F) {
	f.Add(uint16(1025), uint8(0), uint8(0), uint8(0x1f), int64(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint16(1), uint8(1), uint8(1), uint8(0x03), int64(math.MinInt64), uint8(0xff), uint8(1), uint8(1))
	f.Add(uint16(3067), uint8(2), uint8(3), uint8(0x14), int64(math.MaxInt64), uint8(0x55), uint8(2), uint8(0xfe))
	f.Add(uint16(2048), uint8(1), uint8(4), uint8(0x0a), int64(-1<<40), uint8(0x81), uint8(3), uint8(0xff))
	f.Add(uint16(60000), uint8(0), uint8(3), uint8(0x2c), int64(1<<50), uint8(0x11), uint8(7), uint8(0x05))
	f.Fuzz(func(t *testing.T, rows uint16, layout, shape, opBits uint8, c int64, extraBits, segBits, hotBits uint8) {
		n := 1 + int(rows)%24000
		tb := reorgTable(n, int64(rows)^c)
		segCap := n
		if segBits&4 != 0 {
			segCap = 1 + int(rows>>3)%(reorgRangeChunks*VectorSize*3)
		}
		rel := reorgLayouts[int(layout)%len(reorgLayouts)].build(tb, segCap)
		var hot []bool
		if hotBits != 0 {
			hot = make([]bool, len(rel.Segments))
			for si := range hot {
				hot[si] = hotBits&(1<<(si%8)) != 0
			}
		}
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
		checkReorgScan(t, rel, q, extra, hot, 1+int(segBits)%4)
	})
}
