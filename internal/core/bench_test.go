package core

import (
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
)

func benchTable(b *testing.B, attrs, rows int) *data.Table {
	b.Helper()
	return data.Generate(data.SyntheticSchema("R", attrs), rows, 77)
}

// BenchmarkEngineSteadyState measures a cache-warm adaptive engine answering
// a recurring query shape (layout settled).
func BenchmarkEngineSteadyState(b *testing.B) {
	tb := benchTable(b, 50, 50_000)
	e := NewH2O(tb, DefaultOptions())
	q := query.Aggregation("R", expr.AggMax, []data.AttrID{3, 9, 17, 25}, query.PredLt(0, 0))
	// Warm: settle the layout.
	for i := 0; i < 40; i++ {
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineColdShapes measures the engine on a stream of always-new
// query shapes: every query is planned from a fresh access pattern.
func BenchmarkEngineColdShapes(b *testing.B) {
	tb := benchTable(b, 50, 50_000)
	e := NewH2O(tb, DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := data.AttrID(i % 50)
		bAttr := data.AttrID((i*7 + 3) % 50)
		q := query.Aggregation("R", expr.AggMax, data.SortedUnique([]data.AttrID{a, bAttr}), query.PredGt((a+1)%50, 0))
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticRowEngine and BenchmarkStaticColumnEngine are the fixed
// baselines on the same query, for comparison with the adaptive engine.
func BenchmarkStaticRowEngine(b *testing.B) {
	tb := benchTable(b, 50, 50_000)
	e := NewRowStore(tb, false)
	q := query.Aggregation("R", expr.AggMax, []data.AttrID{3, 9, 17, 25}, query.PredLt(0, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticColumnEngine(b *testing.B) {
	tb := benchTable(b, 50, 50_000)
	e := NewColumnStore(tb)
	q := query.Aggregation("R", expr.AggMax, []data.AttrID{3, 9, 17, 25}, query.PredLt(0, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracle measures the perfect-layout upper bound.
func BenchmarkOracle(b *testing.B) {
	tb := benchTable(b, 50, 50_000)
	o := NewOracle(tb)
	q := query.Aggregation("R", expr.AggMax, []data.AttrID{3, 9, 17, 25}, query.PredLt(0, 0))
	if _, _, err := o.Execute(q); err != nil { // build the tailored group
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}
