package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
)

// fuzzFoldInput decodes one FuzzAggFold input: rows values cycling through
// raw's little-endian int64s in column 1, column 2 the same values rotated
// by one row, a small signed key per row in column 0, a selection (every
// row when sel is 0, else row r when bit r%64 of sel is set) and the
// aggregate select list opBits picks — each operator over column 1 whose
// bit is set (all five when none is), and with bit 5 a sum over
// columns 1 + 2.
func fuzzFoldInput(raw []byte, rows int, opBits uint8, sel uint64) (cols [][]data.Value, rowSel []int32, items []query.SelectItem) {
	var vals []data.Value
	for len(raw) >= 8 {
		vals = append(vals, data.Value(binary.LittleEndian.Uint64(raw)))
		raw = raw[8:]
	}
	for _, b := range raw {
		vals = append(vals, data.Value(int8(b)))
	}
	if len(vals) == 0 {
		vals = []data.Value{0}
	}
	cols = [][]data.Value{make([]data.Value, rows), make([]data.Value, rows), make([]data.Value, rows)}
	for r := 0; r < rows; r++ {
		v := vals[r%len(vals)]
		cols[0][r] = v % 3
		cols[1][r] = v
		cols[2][r] = vals[(r+1)%len(vals)]
		if sel == 0 || sel>>(r%64)&1 == 1 {
			rowSel = append(rowSel, int32(r))
		}
	}
	col := func(a data.AttrID) expr.Expr { return &expr.Col{ID: a} }
	for i, op := range []expr.AggOp{expr.AggSum, expr.AggAvg, expr.AggMin, expr.AggMax, expr.AggCount} {
		if opBits&0x1f == 0 || opBits>>i&1 == 1 {
			items = append(items, query.SelectItem{Agg: &expr.Agg{Op: op, Arg: col(1)}})
		}
	}
	if opBits&0x20 != 0 {
		items = append(items, query.SelectItem{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Arith{Op: expr.Add, L: col(1), R: col(2)}}})
	}
	return cols, rowSel, items
}

// fuzzSeedRaw encodes values as FuzzAggFold's raw input.
func fuzzSeedRaw(vals ...data.Value) []byte {
	raw := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
	}
	return raw
}

// FuzzAggFold folds random values — int64 extremes included — through the
// typed accumulator for a random operator set and selection: with no keys
// and with one key, in pieces of a random size (the folder chunks each
// piece at VectorSize rows), and folded as two halves merged through
// mergeAcc. Every state must equal expr.AggState.Add over the same rows,
// and the merged ones expr.AggState.Merge of the two halves' states.
func FuzzAggFold(f *testing.F) {
	const (
		maxV = math.MaxInt64
		minV = math.MinInt64
	)
	f.Add(fuzzSeedRaw(5, -3, 7), uint16(3), uint8(0), uint64(0), uint16(1))
	f.Add(fuzzSeedRaw(5, -3, 7), uint16(6), uint8(0x3f), uint64(0x8000000000000000), uint16(2)) // no row of the first six
	f.Add(fuzzSeedRaw(maxV, maxV, 3, 1), uint16(8), uint8(0x23), uint64(0), uint16(3))          // sum and avg wrap
	f.Add(fuzzSeedRaw(minV, maxV, 0, -1), uint16(9), uint8(0x0c), uint64(0), uint16(4))         // min and max at both ends
	f.Add(fuzzSeedRaw(minV), uint16(5), uint8(0x08), uint64(0), uint16(2))                      // max is MinInt64
	f.Add(fuzzSeedRaw(maxV), uint16(5), uint8(0x04), uint64(0), uint16(2))                      // min is MaxInt64
	f.Add(fuzzSeedRaw(minV, 1, maxV, -7, 0, 3), uint16(2500), uint8(0x3f), uint64(0xf0f0f0f0f0f0f0f0), uint16(700))
	f.Fuzz(func(t *testing.T, raw []byte, rows uint16, opBits uint8, sel uint64, piece uint16) {
		cols, rowSel, items := fuzzFoldInput(raw, int(rows)%3000, opBits, sel)
		binds := make([]colBinding, len(cols))
		for a, vals := range cols {
			binds[a] = colBinding{d: vals, stride: 1}
		}
		mid := len(rowSel) / 2
		if len(rowSel) > 0 {
			mid = int(piece) % (len(rowSel) + 1)
		}
		step := 1 + int(piece)%1500
		fold := func(out Outputs, sel []int32) *groupedAcc {
			ga := newGroupedAcc(out)
			fo := newGroupedFolder(out, nil, nil, nil)
			fo.binds = binds
			for len(sel) > 0 {
				n := min(step, len(sel))
				fo.foldSel(ga, sel[:n])
				sel = sel[n:]
			}
			return ga
		}
		for _, keyed := range []bool{false, true} {
			q := &query.Query{Table: "R", Items: items}
			if keyed {
				q.GroupBy = []expr.Col{{ID: 0}}
				q.Items = append([]query.SelectItem{{Expr: &expr.Col{ID: 0}}}, items...)
			}
			out := Classify(q)
			if out.Kind != OutGrouped {
				t.Fatalf("%s classified as %v", q, out.Kind)
			}
			whole := refGroupedFold(out, cols, rowSel)
			lo, hi := refGroupedFold(out, cols, rowSel[:mid]), refGroupedFold(out, cols, rowSel[mid:])
			merged := map[string][]*expr.AggState{}
			for _, m := range []map[string][]*expr.AggState{lo, hi} {
				for k, sts := range m {
					if merged[k] == nil {
						for _, op := range out.GroupOps {
							merged[k] = append(merged[k], expr.NewAggState(op))
						}
					}
					for j, st := range sts {
						merged[k][j].Merge(st)
					}
				}
			}
			label := fmt.Sprintf("%s over %d of %d rows, halves at %d, pieces of %d", q, len(rowSel), len(cols[0]), mid, step)
			got := fold(out, rowSel)
			typed := newGroupedAcc(out)
			typed.mergeAcc(fold(out, rowSel[:mid]))
			typed.mergeAcc(fold(out, rowSel[mid:]))
			for _, c := range []struct {
				name string
				ga   *groupedAcc
				want map[string][]*expr.AggState
			}{{"fold", got, whole}, {"merged halves", typed, merged}} {
				if keyed {
					if diff := sameGroups(c.ga.groups(), c.want); diff != "" {
						t.Fatalf("%s: %s: %s", label, c.name, diff)
					}
				} else if diff := sameGroups(map[string][]*expr.AggState{"": c.ga.states()}, c.want); diff != "" {
					t.Fatalf("%s: %s: %s", label, c.name, diff)
				}
				if res, want := groupedResult(out, c.ga), refGroupedResult(out, c.want); !res.Equal(want) {
					t.Fatalf("%s: %s: result %v, want %v", label, c.name, res.Data, want.Data)
				}
			}
		}
	})
}
