package exec

import (
	"fmt"
	"math"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// scalarRelation builds the edge-semantics relation R(a0, a1, a2): a0 is
// the row position, a1 holds vals, a2 is all zeros (a join key, and a
// neutral addend for expression arguments). Segments hold segCap rows, so
// every relation but a tiny one has sealed segments and a tail.
func scalarRelation(vals []data.Value, rowMajor bool) *storage.Relation {
	const segCap = 4
	tb := &data.Table{Schema: data.SyntheticSchema("R", 3), Rows: len(vals)}
	tb.Cols = [][]data.Value{make([]data.Value, len(vals)), append([]data.Value(nil), vals...), make([]data.Value, len(vals))}
	for r := range vals {
		tb.Cols[0][r] = data.Value(r)
	}
	if rowMajor {
		return storage.BuildRowMajorSeg(tb, false, segCap)
	}
	return storage.BuildColumnMajorSeg(tb, segCap)
}

// refScalar folds the qualifying rows of vals row at a time through
// expr.AggState.Add, one state per operator.
func refScalar(ops []expr.AggOp, vals []data.Value, where expr.Pred) []data.Value {
	states := make([]*expr.AggState, len(ops))
	for i, op := range ops {
		states[i] = expr.NewAggState(op)
	}
	for r, v := range vals {
		get := func(a data.AttrID) data.Value {
			switch a {
			case 0:
				return data.Value(r)
			case 1:
				return v
			}
			return 0
		}
		if where != nil && !where.EvalBool(get) {
			continue
		}
		for _, st := range states {
			st.Add(v)
		}
	}
	out := make([]data.Value, len(ops))
	for i, st := range states {
		out[i] = st.Result()
	}
	return out
}

// TestScalarFoldEdgeSemantics pins ungrouped aggregates at their edges on
// every path that folds them: a select list with no qualifying row is one
// row of zeros (count 0, and sum, avg, min and max 0 — no operator's
// starting state leaks), sums wrap past int64, and min and max hold at
// both int64 ends, including a max of MinInt64 and a min of MaxInt64.
// Each case runs every buildable strategy on a row-major and a
// column-major relation with half its sealed segments encoded, the
// encoded strategy on fully encoded sealed segments (whose headers fold
// whole blocks), ExecPartials(...).Result(), and a scalar join, for five
// aggregates over a column and for each aggregate alone over an
// expression argument.
func TestScalarFoldEdgeSemantics(t *testing.T) {
	const (
		maxV = math.MaxInt64
		minV = math.MinInt64
	)
	ops := []expr.AggOp{expr.AggSum, expr.AggAvg, expr.AggMin, expr.AggMax, expr.AggCount}
	a0Eq := func(v data.Value) *expr.Cmp { return &expr.Cmp{Op: expr.Eq, L: &expr.Col{ID: 0}, R: &expr.Const{V: v}} }
	cases := []struct {
		name  string
		vals  []data.Value
		where expr.Pred
		empty bool // no row qualifies: the result must be all zeros
	}{
		{"no qualifying row, pruned", []data.Value{5, -3, 7, 9, 11, 2}, query.PredLt(0, 0), true},
		{"no qualifying row, scanned", []data.Value{5, -3, 7, 9, 11, 2}, &expr.And{Terms: []expr.Pred{a0Eq(1), a0Eq(2)}}, true},
		{"empty relation", nil, nil, true},
		{"sum and avg wrap", []data.Value{maxV, maxV, 3, 1, maxV, 2}, nil, false},
		{"min and max at both ends", []data.Value{minV, maxV, 0, minV, maxV, -1, 1}, nil, false},
		{"max is MinInt64", []data.Value{minV, minV, minV, minV, minV}, nil, false},
		{"min is MaxInt64", []data.Value{maxV, maxV, maxV, maxV, maxV}, nil, false},
		{"one row", []data.Value{minV}, nil, false},
		{"filtered extremes", []data.Value{maxV, minV, maxV, minV, maxV, minV, 4, -4, maxV}, query.PredGt(0, 2), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := refScalar(ops, c.vals, c.where)
			if c.empty {
				for i, v := range want {
					if v != 0 {
						t.Fatalf("reference %v of an empty selection is %d", ops[i], v)
					}
				}
			}
			// Five aggregates over a1, and each aggregate alone over a1+a2.
			multi := &query.Query{Table: "R", Where: c.where}
			for _, op := range ops {
				multi.Items = append(multi.Items, query.SelectItem{Agg: &expr.Agg{Op: op, Arg: &expr.Col{ID: 1}}})
			}
			// header: every full block folds from its header; min and max
			// over an expression must see row values.
			type shape struct {
				q      *query.Query
				want   []data.Value
				header bool
			}
			shapes := []shape{{multi, want, true}}
			for i, op := range ops {
				arg := &expr.Arith{Op: expr.Add, L: &expr.Col{ID: 1}, R: &expr.Col{ID: 2}}
				shapes = append(shapes, shape{&query.Query{Table: "R", Where: c.where,
					Items: []query.SelectItem{{Agg: &expr.Agg{Op: op, Arg: arg}}}}, want[i : i+1], op != expr.AggMin && op != expr.AggMax})
			}
			check := func(label string, got *Result, err error, want []data.Value) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got.Rows != 1 || fmt.Sprint(got.Data) != fmt.Sprint(want) {
					t.Fatalf("%s: %d rows %v, want 1 row %v", label, got.Rows, got.Data, want)
				}
			}
			for _, rowMajor := range []bool{false, true} {
				for _, s := range shapes {
					q := s.q
					rel := scalarRelation(c.vals, rowMajor)
					demoteFraction(rel, 0.5)
					for _, st := range []Strategy{StrategyRow, StrategyColumn, StrategyHybrid, StrategyGeneric, StrategyEncoded, StrategyReorg} {
						if st == StrategyRow && !RowCovered(rel, q) {
							continue
						}
						got, err := Exec(rel, q, ExecOpts{Strategy: st, ReorgAttrs: q.AllAttrs()})
						check(fmt.Sprintf("%v on %s (row-major %v)", st, q, rowMajor), got, err, s.want)
					}
					p, err := ExecPartials(rel, q, nil)
					if err != nil {
						t.Fatalf("partials %s: %v", q, err)
					}
					check(fmt.Sprintf("partials of %s (row-major %v)", q, rowMajor), p.Result(), nil, s.want)

					// Every sealed segment encoded: full blocks fold from
					// their headers without a decode.
					enc := scalarRelation(c.vals, rowMajor)
					demoteFraction(enc, 1)
					var stats StrategyStats
					got, err := Exec(enc, q, ExecOpts{Strategy: StrategyEncoded, Stats: &stats})
					check(fmt.Sprintf("encoded header fold of %s (row-major %v)", q, rowMajor), got, err, s.want)
					if s.header && c.where == nil && len(enc.Segments) > 1 && stats.DecodeSkips == 0 {
						t.Fatalf("encoded %s: no block folded from its header", q)
					}

					// The same select list over R ⋈ S on R.a2 = S.a0, where S
					// holds the one row with key 0: every R row joins once.
					dim := &data.Table{Schema: data.SyntheticSchema("S", 2), Rows: 1, Cols: [][]data.Value{{0}, {1}}}
					jq := *q
					jq.Joins = []query.Join{query.JoinOn("S", 2, 0, 3)}
					left := scalarRelation(c.vals, rowMajor)
					right := storage.BuildColumnMajor(dim)
					got, err = ExecJoin(left, right, &jq, ExecOpts{})
					check(fmt.Sprintf("join %s (row-major %v)", &jq, rowMajor), got, err, s.want)
					jp, _, err := ExecJoinDelta(left, right, &jq, nil, 1, nil)
					if err != nil {
						t.Fatalf("join partials %s: %v", &jq, err)
					}
					check(fmt.Sprintf("join partials of %s (row-major %v)", &jq, rowMajor), jp.Result(), nil, s.want)
				}
			}
		})
	}
}
