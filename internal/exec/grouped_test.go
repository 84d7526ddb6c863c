package exec

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
)

// refGroupedFold is the reference grouped fold: row at a time, one
// AggState.Add per aggregate into a map keyed by the encoded key vector.
// With no keys the one group, keyed "", exists before any row.
func refGroupedFold(out Outputs, cols [][]data.Value, sel []int32) map[string][]*expr.AggState {
	m := map[string][]*expr.AggState{}
	if len(out.GroupBy) == 0 {
		for _, op := range out.GroupOps {
			m[""] = append(m[""], expr.NewAggState(op))
		}
	}
	var row int
	get := func(a data.AttrID) data.Value { return cols[a][row] }
	kv := make([]data.Value, len(out.GroupBy))
	for _, r := range sel {
		row = int(r)
		for i, a := range out.GroupBy {
			kv[i] = get(a)
		}
		k := string(encodeGroupKey(nil, kv))
		sts, ok := m[k]
		if !ok {
			for _, op := range out.GroupOps {
				sts = append(sts, expr.NewAggState(op))
			}
			m[k] = sts
		}
		for j, e := range out.GroupArgs {
			sts[j].Add(e.Eval(get))
		}
	}
	return m
}

// refGroupedResult orders the reference map's groups by encoded key, as
// the engine promises.
func refGroupedResult(out Outputs, m map[string][]*expr.AggState) *Result {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res := &Result{Cols: out.Labels, Rows: len(keys), Data: []data.Value{}}
	for _, k := range keys {
		kv := decodeGroupKey(k, nil)
		j := 0
		for _, ki := range out.ItemKey {
			if ki >= 0 {
				res.Data = append(res.Data, kv[ki])
				continue
			}
			res.Data = append(res.Data, m[k][j].Result())
			j++
		}
	}
	return res
}

// sameGroups reports the first difference between two group maps, state
// by state (operator, accumulator, count, result), or "".
func sameGroups(got, want map[string][]*expr.AggState) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d groups, want %d", len(got), len(want))
	}
	for k, ws := range want {
		gs, ok := got[k]
		if !ok {
			return fmt.Sprintf("group %v missing", decodeGroupKey(k, nil))
		}
		for j := range ws {
			g, w := gs[j], ws[j]
			if g.Op != w.Op || g.Acc != w.Acc || g.Count != w.Count || g.Result() != w.Result() {
				return fmt.Sprintf("group %v aggregate %d: %s acc %d count %d, want acc %d count %d",
					decodeGroupKey(k, nil), j, g.Op, g.Acc, g.Count, w.Acc, w.Count)
			}
		}
	}
	return ""
}

// TestGroupedFoldEdgeSemantics pins the typed, directory-indexed grouped
// fold to the row-at-a-time reference bit for bit: int64 wraparound in
// sum and avg, min and max at the int64 extremes (a group whose max is
// MinInt64 or whose min is MaxInt64 equals its operator's starting
// state), group keys spanning the whole int64 domain (the unsigned span
// must pick a hashed directory), negative keys, one-row groups, an empty
// selection, a dense directory converting to hashed mid-scan, a two-key
// group and an expression argument. Each case also folds its selection in
// two halves and merges them, through the typed merge and through the
// canonical map.
func TestGroupedFoldEdgeSemantics(t *testing.T) {
	const (
		maxV = math.MaxInt64
		minV = math.MinInt64
	)
	col := func(id data.AttrID) expr.Expr { return &expr.Col{ID: id} }
	aggs := func(arg expr.Expr) []query.SelectItem {
		var items []query.SelectItem
		for _, op := range []expr.AggOp{expr.AggSum, expr.AggAvg, expr.AggMin, expr.AggMax, expr.AggCount} {
			items = append(items, query.SelectItem{Agg: &expr.Agg{Op: op, Arg: arg}})
		}
		return items
	}
	grouped := func(keys []data.AttrID, arg expr.Expr) *query.Query {
		q := &query.Query{Table: "R"}
		for _, k := range keys {
			q.GroupBy = append(q.GroupBy, expr.Col{ID: k})
			q.Items = append(q.Items, query.SelectItem{Expr: col(k)})
		}
		q.Items = append(q.Items, aggs(arg)...)
		return q
	}
	// convertCols builds 1500 rows whose first VectorSize keys lie in
	// [0, 63] and whose rest lie far outside, so a directory planned from
	// the first chunk is dense and the second chunk converts it.
	convertCols := func() [][]data.Value {
		k, v := make([]data.Value, 1500), make([]data.Value, 1500)
		for r := range k {
			k[r], v[r] = data.Value(r%64), data.Value(r*7919)
			if r >= VectorSize {
				k[r] = data.Value(r%5) * 1e12
			}
		}
		return [][]data.Value{k, v}
	}
	all := func(n int) []int32 {
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
		return sel
	}

	cases := []struct {
		name  string
		q     *query.Query
		cols  [][]data.Value // attribute id -> column
		sel   []int32        // nil: every row
		dense bool           // the directory after the fold
	}{
		{"sum and avg wrap", grouped([]data.AttrID{0}, col(1)), [][]data.Value{
			{1, 1, 1, 2, 2},
			{maxV, maxV, 3, minV, -1},
		}, nil, true},
		{"min and max at the extremes", grouped([]data.AttrID{0}, col(1)), [][]data.Value{
			{0, 0, 1, 1, 2, 3},
			{minV, minV, maxV, maxV, minV, maxV},
		}, nil, true},
		{"keys at both int64 extremes", grouped([]data.AttrID{0}, col(1)), [][]data.Value{
			{minV, maxV, minV, 0, maxV, -1},
			{1, 2, 3, 4, 5, 6},
		}, nil, false},
		{"keys near both extremes", grouped([]data.AttrID{0}, col(1)), [][]data.Value{
			{minV + 1, maxV - 1, -2, maxV},
			{1, 2, 3, 4},
		}, nil, false},
		{"negative keys", grouped([]data.AttrID{0}, col(1)), [][]data.Value{
			{-5, -1, -3, -5, -1, -2},
			{10, -20, 30, -40, 50, -60},
		}, nil, true},
		{"one-row groups", grouped([]data.AttrID{0}, col(1)), [][]data.Value{
			{9, 4, 7, 1, 3},
			{-1, minV, maxV, 0, 5},
		}, nil, true},
		{"empty selection", grouped([]data.AttrID{0}, col(1)), [][]data.Value{
			{1, 2, 3},
			{4, 5, 6},
		}, []int32{}, false},
		{"dense converts mid-scan", grouped([]data.AttrID{0}, col(1)), convertCols(), nil, false},
		{"two-key group", grouped([]data.AttrID{0, 1}, col(2)), [][]data.Value{
			{1, 1, -1, 1, minV, minV},
			{2, 3, 2, 2, maxV, maxV},
			{maxV, 5, -7, maxV, minV, 1},
		}, nil, false},
		{"expression argument", grouped([]data.AttrID{0}, &expr.Arith{Op: expr.Mul, L: col(1), R: col(2)}), [][]data.Value{
			{0, 1, 0, 1, 2},
			{maxV, 3, 2, minV, 6},
			{2, maxV, 2, -1, 7},
		}, []int32{0, 1, 2, 3}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := Classify(c.q)
			if out.Kind != OutGrouped {
				t.Fatalf("%s classified as %v", c.q, out.Kind)
			}
			sel := c.sel
			if sel == nil {
				sel = all(len(c.cols[0]))
			}
			binds := make([]colBinding, len(c.cols))
			for a, vals := range c.cols {
				binds[a] = colBinding{d: vals, stride: 1}
			}
			fold := func(sel []int32) *groupedAcc {
				ga := newGroupedAcc(out)
				f := newGroupedFolder(out, nil, nil, nil)
				f.binds = binds
				f.foldSel(ga, sel)
				return ga
			}
			want := refGroupedFold(out, c.cols, sel)
			ga := fold(sel)
			if diff := sameGroups(ga.groups(), want); diff != "" {
				t.Fatalf("typed fold: %s", diff)
			}
			if ga.dir.planned() && ga.dir.dense != c.dense {
				t.Fatalf("directory dense=%v, want %v", ga.dir.dense, c.dense)
			}
			wantRes := refGroupedResult(out, want)
			if got := groupedResult(out, ga); !got.Equal(wantRes) {
				t.Fatalf("result %v, want %v", got.Data, wantRes.Data)
			}

			lo, hi := fold(sel[:len(sel)/2]), fold(sel[len(sel)/2:])
			typed := newGroupedAcc(out)
			typed.mergeAcc(lo)
			typed.mergeAcc(hi)
			if diff := sameGroups(typed.groups(), want); diff != "" {
				t.Fatalf("typed merge: %s", diff)
			}
			canon := newGroupedAcc(out)
			canon.mergeMap(lo.groups())
			canon.mergeMap(hi.groups())
			if diff := sameGroups(canon.groups(), want); diff != "" {
				t.Fatalf("map merge: %s", diff)
			}
			if got := groupedResult(out, canon); !got.Equal(wantRes) {
				t.Fatalf("merged result %v, want %v", got.Data, wantRes.Data)
			}
		})
	}
}

// TestGroupedAccPlan checks the directory choice: a single key whose
// bounds span less than denseMaxSlots is dense, a wider span — and one
// over the whole int64 domain, which overflows signed arithmetic — is
// hashed, and key vectors are always hashed.
func TestGroupedAccPlan(t *testing.T) {
	one := Outputs{GroupBy: []data.AttrID{0}, GroupOps: []expr.AggOp{expr.AggCount}}
	two := Outputs{GroupBy: []data.AttrID{0, 1}, GroupOps: []expr.AggOp{expr.AggCount}}
	for _, c := range []struct {
		out    Outputs
		lo, hi data.Value
		dense  bool
	}{
		{one, 0, 63, true},
		{one, -10, 10, true},
		{one, 0, denseMaxSlots - 1, true},
		{one, 0, denseMaxSlots, false},
		{one, -1 << 20, 1 << 20, false},
		{one, math.MinInt64, math.MaxInt64, false},
		{one, -2, math.MaxInt64, false},
		{one, math.MinInt64, 0, false},
		{two, 0, 3, false},
	} {
		ga := newGroupedAcc(c.out)
		ga.plan(c.lo, c.hi)
		if ga.dir.dense != c.dense {
			t.Fatalf("%d keys over [%d, %d]: dense=%v, want %v",
				len(c.out.GroupBy), c.lo, c.hi, ga.dir.dense, c.dense)
		}
		if ga.dir.dense && len(ga.count) != int(c.hi-c.lo)+1 {
			t.Fatalf("[%d, %d]: %d dense slots, want %d", c.lo, c.hi, len(ga.count), c.hi-c.lo+1)
		}
	}
}
