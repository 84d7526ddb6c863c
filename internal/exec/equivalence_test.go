package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// Cross-strategy equivalence harness: a generator-driven property test that
// runs randomized queries through every execution strategy on randomized
// segmented relations — mixed per-segment layouts, partial/exact-boundary
// tails, empty relations, 0–100% residency — and demands results identical
// to the generic interpreter. It is the safety net the segment-precise
// cache keying (and every future exec change) runs against: any strategy
// that diverges on some (layout, query, residency) combination fails here
// before it can poison a cached result.

const (
	eqSchemaWidth = 6
	eqSegCap      = 128
	// eqLongSegCap sizes the segments of eqRelation's long row choice,
	// eqLongRows: one segment longer than two fold chunks, so every
	// strategy's fold crosses chunk boundaries, and a tail.
	eqLongSegCap = 3*VectorSize - 5
	eqLongRows   = eqLongSegCap + 45
	// eqSpreadAttr is the attribute eqSpreadKey may spread over int64.
	eqSpreadAttr = eqSchemaWidth - 1
)

// eqSpreadKey overwrites col with a dozen distinct values spread over the
// whole int64 domain, both extremes included: a group key no dense
// directory can span.
func eqSpreadKey(rng *rand.Rand, col []data.Value) {
	pool := []data.Value{math.MinInt64, math.MaxInt64, -1, 0}
	for len(pool) < 12 {
		pool = append(pool, data.Value(rng.Uint64()))
	}
	for r := range col {
		col[r] = pool[rng.Intn(len(pool))]
	}
}

// eqRelation builds one randomized relation: random size (including zero
// rows, exact segment-boundary sizes and a segment longer than two fold
// chunks), random base layout, random per-segment group additions so
// segments legitimately disagree on layout.
func eqRelation(t testing.TB, rng *rand.Rand) *storage.Relation {
	t.Helper()
	schema := data.SyntheticSchema("R", eqSchemaWidth)
	rowChoices := []int{0, 1, eqSegCap - 1, eqSegCap, 3 * eqSegCap, 4*eqSegCap + 77, eqLongRows}
	rows := rowChoices[rng.Intn(len(rowChoices))]
	segCap := eqSegCap
	if rows == eqLongRows {
		segCap = eqLongSegCap
	}

	var tb *data.Table
	if rng.Intn(2) == 0 {
		tb = data.GenerateTimeSeries(schema, rows, rng.Int63()) // zone-map-prunable
	} else {
		tb = data.Generate(schema, rows, rng.Int63())
	}
	if rng.Intn(2) == 0 {
		eqSpreadKey(rng, tb.Cols[eqSpreadAttr])
	}

	var rel *storage.Relation
	if rng.Intn(2) == 0 {
		rel = storage.BuildColumnMajorSeg(tb, segCap)
	} else {
		rel = storage.BuildRowMajorSeg(tb, false, segCap)
	}

	// Mixed layouts: stitch extra groups into a random subset of segments,
	// so covering-group resolution runs per segment, not per relation.
	all := make([]data.AttrID, eqSchemaWidth)
	for a := range all {
		all[a] = a
	}
	for _, seg := range rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0: // keep the base layout
		case 1: // add a full-width row group
			if _, ok := seg.ExactGroup(all); ok {
				continue
			}
			g, err := storage.StitchSeg(seg, all)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.AddGroup(g); err != nil {
				t.Fatal(err)
			}
		case 2: // add a random narrow group (2–3 attrs)
			attrs := query.RandomAttrs(eqSchemaWidth, 2+rng.Intn(2), rng.Intn)
			if _, ok := seg.ExactGroup(attrs); ok {
				continue
			}
			g, err := storage.StitchSeg(seg, attrs)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.AddGroup(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	return rel
}

// eqPredConst picks a predicate constant: for the (possibly) position-valued
// attribute 0 a value in and around [0, rows); otherwise a draw from the
// full synthetic domain, occasionally extreme so match-nothing and
// match-everything predicates both occur.
func eqPredConst(rng *rand.Rand, attr data.AttrID, rows int) data.Value {
	switch rng.Intn(5) {
	case 0:
		return data.ValueLo - 1 // matches nothing for <, everything for >
	case 1:
		return data.ValueHi + 1
	default:
		if attr == 0 && rng.Intn(2) == 0 {
			return data.Value(rng.Intn(rows + 1))
		}
		return data.ValueLo + data.Value(rng.Int63n(int64(data.ValueHi-data.ValueLo)))
	}
}

// eqQuery generates one randomized query: projection / per-column
// aggregates / arithmetic expression / aggregated expression / grouped
// aggregation (mixed per-item ops, occasionally expression arguments or
// unselected keys) / key-only grouping over random attributes, with a random
// predicate shape (none, single comparison, conjunction, disjunction) and a
// random limit.
func eqQuery(rng *rand.Rand, rows int) *query.Query {
	attrs := query.RandomAttrs(eqSchemaWidth, 1+rng.Intn(3), rng.Intn)
	where := eqWhere(rng, rows)

	var q *query.Query
	switch rng.Intn(6) {
	case 0:
		q = query.Projection("R", attrs, where)
	case 1:
		ops := []expr.AggOp{expr.AggSum, expr.AggMax, expr.AggMin, expr.AggCount, expr.AggAvg}
		q = query.Aggregation("R", ops[rng.Intn(len(ops))], attrs, where)
	case 2:
		q = query.ArithExpression("R", attrs, where)
	case 3:
		q = query.AggExpression("R", attrs, where)
	case 4:
		// Grouped aggregation: random keys, a mixed aggregate op per item,
		// occasionally an expression argument, occasionally a key left out of
		// the select list (legal: grouping still runs over the full key
		// vector, the output just omits that column).
		keys := query.RandomAttrs(eqSchemaWidth, 1+rng.Intn(2), rng.Intn)
		gb := make([]expr.Col, len(keys))
		items := make([]query.SelectItem, 0, len(keys)+len(attrs))
		for i, k := range keys {
			gb[i] = expr.Col{ID: k}
			if len(keys) == 1 || rng.Intn(4) != 0 {
				items = append(items, query.SelectItem{Expr: &expr.Col{ID: k}})
			}
		}
		ops := []expr.AggOp{expr.AggSum, expr.AggMax, expr.AggMin, expr.AggCount, expr.AggAvg}
		for _, a := range attrs {
			var arg expr.Expr = &expr.Col{ID: a}
			if rng.Intn(4) == 0 {
				arg = expr.SumCols(query.RandomAttrs(eqSchemaWidth, 2, rng.Intn))
			}
			items = append(items, query.SelectItem{Agg: &expr.Agg{Op: ops[rng.Intn(len(ops))], Arg: arg}})
		}
		q = &query.Query{Table: "R", Items: items, Where: where, GroupBy: gb}
	case 5:
		// Key-only grouping (DISTINCT-like): groups with no aggregates.
		keys := query.RandomAttrs(eqSchemaWidth, 1+rng.Intn(2), rng.Intn)
		gb := make([]expr.Col, len(keys))
		items := make([]query.SelectItem, len(keys))
		for i, k := range keys {
			gb[i] = expr.Col{ID: k}
			items[i] = query.SelectItem{Expr: &expr.Col{ID: k}}
		}
		q = &query.Query{Table: "R", Items: items, Where: where, GroupBy: gb}
	}
	if !q.HasAggregates() && len(q.GroupBy) == 0 && rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(2*eqSegCap)
	}
	// Grouped output is a key-ordered prefix under LIMIT, so limits compose
	// with every strategy; small ones exercise the trim.
	if len(q.GroupBy) > 0 && rng.Intn(4) == 0 {
		q.Limit = 1 + rng.Intn(6)
	}
	return q
}

// eqWhere draws a random predicate shape over rows: none, a single
// comparison, a conjunction or a disjunction.
func eqWhere(rng *rand.Rand, rows int) expr.Pred {
	var where expr.Pred
	cmp := func() expr.Pred {
		a := data.AttrID(rng.Intn(eqSchemaWidth))
		ops := []expr.CmpOp{expr.Lt, expr.Le, expr.Gt, expr.Ge}
		return &expr.Cmp{Op: ops[rng.Intn(len(ops))], L: &expr.Col{ID: a},
			R: &expr.Const{V: eqPredConst(rng, a, rows)}}
	}
	switch rng.Intn(4) {
	case 0: // no predicate
	case 1:
		where = cmp()
	case 2:
		where = &expr.And{Terms: []expr.Pred{cmp(), cmp()}}
	case 3:
		// Disjunction: non-splittable — only the generic interpreter and
		// the parallel scan's interpreted filter support it; the rest must
		// cleanly report ErrUnsupported, never a wrong answer.
		where = &expr.Or{L: cmp(), R: cmp()}
	}
	return where
}

// eqGroupedShapes draws the three grouped shapes every harness relation
// runs besides its random queries: GROUP BY the possibly int64-spread key
// eqSpreadAttr (a hashed directory), a two-key GROUP BY, and an aggregate
// whose argument is an expression rather than a column sum (folded
// through a per-row evaluation buffer). Each carries every aggregate
// operator and a random predicate; none has a LIMIT, so all are
// repairable.
func eqGroupedShapes(rng *rand.Rand, rows int) []*query.Query {
	col := func(a data.AttrID) *expr.Col { return &expr.Col{ID: a} }
	shape := func(keys []data.AttrID, arg func() expr.Expr) *query.Query {
		q := &query.Query{Table: "R", Where: eqWhere(rng, rows)}
		for _, k := range keys {
			q.GroupBy = append(q.GroupBy, expr.Col{ID: k})
			q.Items = append(q.Items, query.SelectItem{Expr: col(k)})
		}
		for _, op := range []expr.AggOp{expr.AggSum, expr.AggMax, expr.AggMin, expr.AggCount, expr.AggAvg} {
			q.Items = append(q.Items, query.SelectItem{Agg: &expr.Agg{Op: op, Arg: arg()}})
		}
		return q
	}
	randCol := func() expr.Expr { return col(data.AttrID(rng.Intn(eqSchemaWidth))) }
	arith := func() expr.Expr {
		ops := []expr.ArithOp{expr.Sub, expr.Mul, expr.Div}
		return &expr.Arith{Op: ops[rng.Intn(len(ops))], L: randCol(), R: randCol()}
	}
	return []*query.Query{
		shape([]data.AttrID{eqSpreadAttr}, randCol),
		shape(query.RandomAttrs(eqSchemaWidth, 2, rng.Intn), randCol),
		shape(query.RandomAttrs(eqSchemaWidth, 1, rng.Intn), arith),
	}
}

// refGroupedExec answers a grouped query without the grouped kernels: the
// generic strategy projects every attribute of the qualifying rows, and
// the row-at-a-time reference fold groups them.
func refGroupedExec(t *testing.T, rel *storage.Relation, q *query.Query) *Result {
	t.Helper()
	n := rel.Schema.NumAttrs()
	all := make([]data.AttrID, n)
	for a := range all {
		all[a] = a
	}
	rows, err := Exec(rel, query.Projection("R", all, q.Where), ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatalf("reference projection for %s: %v", q, err)
	}
	cols := make([][]data.Value, n)
	for a := range cols {
		cols[a] = make([]data.Value, rows.Rows)
		for r := range cols[a] {
			cols[a][r] = rows.At(r, a)
		}
	}
	sel := make([]int32, rows.Rows)
	for i := range sel {
		sel[i] = int32(i)
	}
	out := Classify(q)
	return trimLimit(q, refGroupedResult(out, refGroupedFold(out, cols, sel)))
}

// trimLimit truncates a materialized result to q.Limit rows, mirroring the
// engine's applyLimit: strategies stop consuming *segments* at the limit
// but may overshoot within the last one, and the overshoot may legitimately
// differ between strategies.
func trimLimit(q *query.Query, r *Result) *Result {
	if q.Limit <= 0 || r.Rows <= q.Limit {
		return r
	}
	return &Result{Cols: r.Cols, Rows: q.Limit, Data: r.Data[:q.Limit*len(r.Cols)]}
}

// groupedRowsEqual compares two grouped results order-insensitively: equal
// column sets and equal row multisets, regardless of emission order. The
// strategies additionally promise key-ordered emission (which exact Equal
// checks); this weaker comparison isolates "wrong groups" failures from
// "right groups, wrong order" failures.
func groupedRowsEqual(a, b *Result) bool {
	if a.Rows != b.Rows || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	w := len(a.Cols)
	count := make(map[string]int, a.Rows)
	for i := 0; i < a.Rows; i++ {
		count[fmt.Sprint(a.Data[i*w:(i+1)*w])]++
	}
	for i := 0; i < b.Rows; i++ {
		count[fmt.Sprint(b.Data[i*w:(i+1)*w])]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// unloadFraction spills the given fraction of sealed, resident segments
// (rounded up), coldest-index-first for determinism.
func unloadFraction(rel *storage.Relation, frac float64) {
	if frac <= 0 {
		return
	}
	sealed := make([]*storage.Segment, 0, len(rel.Segments))
	for _, seg := range rel.Segments[:len(rel.Segments)-1] {
		if seg.Rows > 0 {
			sealed = append(sealed, seg)
		}
	}
	n := int(frac*float64(len(sealed)) + 0.999999)
	for i := 0; i < n && i < len(sealed); i++ {
		sealed[i].Unload()
	}
}

// demoteFraction drops the flat data of the given fraction of sealed,
// flat-resident segments (rounded up) to the encoded rung, lowest index
// first for determinism. Unlike unloadFraction it is always safe after
// mutations: the encoding is built from the segment's current data.
func demoteFraction(rel *storage.Relation, frac float64) {
	if frac <= 0 || len(rel.Segments) == 0 {
		return
	}
	var sealed []*storage.Segment
	for _, seg := range rel.Segments[:len(rel.Segments)-1] {
		if seg.Rows > 0 && seg.State() == storage.SegResident {
			sealed = append(sealed, seg)
		}
	}
	n := int(frac*float64(len(sealed)) + 0.999999)
	for i := 0; i < n && i < len(sealed); i++ {
		sealed[i].DemoteToEncoded()
	}
}

// eqStrategy is one strategy under test.
type eqStrategy struct {
	name string
	// rowShape marks strategies that need a single covering group per
	// segment; they are skipped (not failed) when the layout lacks one.
	rowShape bool
	run      func(rel *storage.Relation, q *query.Query) (*Result, error)
}

func eqStrategies(rng *rand.Rand) []eqStrategy {
	return []eqStrategy{
		{"row", true, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyRow})
		}},
		{"row-parallel", true, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyRow, Workers: 1 + rng.Intn(7)})
		}},
		{"column", false, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyColumn})
		}},
		{"hybrid", false, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyHybrid})
		}},
		{"generic", false, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
		}},
		{"encoded", false, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyEncoded})
		}},
		{"reorg", false, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			// Random hot mask: the reorganizing executor must answer
			// identically whichever segments it stitches, and it must not
			// register the groups it builds (the engine does that).
			hot := make([]bool, len(rel.Segments))
			for i := range hot {
				hot[i] = rng.Intn(2) == 0
			}
			return Exec(rel, q, ExecOpts{Strategy: StrategyReorg, ReorgAttrs: q.AllAttrs(), HotMask: hot})
		}},
	}
}

// checkEquivalence runs every strategy against the generic reference on one
// (relation, query, residency) combination.
func checkEquivalence(t *testing.T, rng *rand.Rand, rel *storage.Relation, q *query.Query, residentFrac float64) {
	t.Helper()
	want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatalf("reference execution failed for %s: %v", q, err)
	}
	want = trimLimit(q, want)
	if Classify(q).Kind == OutGrouped {
		if ref := refGroupedExec(t, rel, q); !want.Equal(ref) {
			t.Fatalf("generic aggregate %s diverged from the row-at-a-time fold:\n got %v\nwant %v", q, want.Data, ref.Data)
		}
	}

	for _, s := range eqStrategies(rng) {
		// Re-establish the residency mix before each strategy: the previous
		// one faulted whatever it scanned back in. Half of the segments left
		// flat-resident are then demoted to the encoded rung, so every
		// strategy sees flat, encoded and spilled segments side by side.
		unloadFraction(rel, 1-residentFrac)
		demoteFraction(rel, 0.5)
		if s.rowShape && !RowCovered(rel, q) {
			continue
		}
		got, err := s.run(rel, q)
		if err == ErrUnsupported {
			continue // shape outside the strategy's template library
		}
		if err != nil {
			t.Fatalf("strategy %s failed on %s (resident %.0f%%): %v", s.name, q, residentFrac*100, err)
		}
		got = trimLimit(q, got)
		if len(q.GroupBy) > 0 && !groupedRowsEqual(got, want) {
			t.Fatalf("strategy %s produced wrong groups on %s (resident %.0f%%):\n got %d rows %v\nwant %d rows %v",
				s.name, q, residentFrac*100, got.Rows, got.Data, want.Rows, want.Data)
		}
		if !got.Equal(want) {
			t.Fatalf("strategy %s diverged on %s (resident %.0f%%):\n got %d rows %v\nwant %d rows %v",
				s.name, q, residentFrac*100, got.Rows, got.Data, want.Rows, want.Data)
		}
	}
}

// TestCrossStrategyEquivalence is the harness entry point: for each
// residency level, a fresh set of randomized relations each runs a batch of
// randomized queries through every strategy.
func TestCrossStrategyEquivalence(t *testing.T) {
	const (
		relationsPerLevel = 5
		queriesPerRel     = 14
	)
	for _, residentFrac := range []float64{0, 0.5, 1} {
		residentFrac := residentFrac
		t.Run(fmt.Sprintf("resident=%.0f%%", residentFrac*100), func(t *testing.T) {
			rng := rand.New(rand.NewSource(20140622 + int64(residentFrac*100)))
			for r := 0; r < relationsPerLevel; r++ {
				rel := eqRelation(t, rng)
				installSnapshotLoader(rel)
				for i := 0; i < queriesPerRel; i++ {
					q := eqQuery(rng, rel.Rows)
					checkEquivalence(t, rng, rel, q, residentFrac)
				}
				for _, q := range eqGroupedShapes(rng, rel.Rows) {
					checkEquivalence(t, rng, rel, q, residentFrac)
				}
			}
		})
	}
}

// eqMutate applies a batch of randomized mutations to rel: single-tuple
// tail appends, batch appends of 1 to 2×eqSegCap rows (possibly rolling the
// tail over into fresh segments) and segment-local reorganizations (a
// stitched group added to a random non-empty segment, bumping its version
// exactly as incremental adaptation does). val draws the non-key attribute
// values of appended tuples.
func eqMutate(t testing.TB, rng *rand.Rand, rel *storage.Relation, val func() data.Value) {
	t.Helper()
	tuple := func() []data.Value { return eqTuple(rel, val) }
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(3) {
		case 0: // single-tuple appends, occasionally a burst that seals the tail
			count := 1 + rng.Intn(2*eqSegCap/3)
			for i := 0; i < count; i++ {
				if err := rel.Append(tuple()); err != nil {
					t.Fatal(err)
				}
			}
		case 1: // one batch, crossing a seal when it outgrows the tail's room
			batch := make([][]data.Value, 1+rng.Intn(2*eqSegCap))
			for i := range batch {
				batch[i] = tuple()
				batch[i][0] += data.Value(i)
			}
			if err := rel.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		case 2: // segment-local reorg
			var nonEmpty []*storage.Segment
			for _, seg := range rel.Segments {
				if seg.Rows > 0 {
					nonEmpty = append(nonEmpty, seg)
				}
			}
			if len(nonEmpty) == 0 {
				continue
			}
			seg := nonEmpty[rng.Intn(len(nonEmpty))]
			attrs := query.RandomAttrs(eqSchemaWidth, 2+rng.Intn(2), rng.Intn)
			if _, ok := seg.ExactGroup(attrs); ok {
				continue
			}
			g, err := storage.StitchSeg(seg, attrs)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.AddGroup(g); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// eqTuple builds one tuple to append to rel: attribute 0 is the next row
// position (keeping it append-ordered), the rest come from val.
func eqTuple(rel *storage.Relation, val func() data.Value) []data.Value {
	tup := make([]data.Value, eqSchemaWidth)
	tup[0] = data.Value(rel.Rows)
	for a := 1; a < eqSchemaWidth; a++ {
		tup[a] = val()
	}
	return tup
}

// eqExtreme draws a value within 1000 of math.MaxInt64 or math.MinInt64,
// so sums over a handful of rows wrap around.
func eqExtreme(rng *rand.Rand) data.Value {
	if rng.Intn(2) == 0 {
		return math.MaxInt64 - data.Value(rng.Int63n(1000))
	}
	return math.MinInt64 + data.Value(rng.Int63n(1000))
}

// eqExtremeRelation builds a column-major relation with a partial tail
// whose non-key attributes all sit at the int64 extremes.
func eqExtremeRelation(rng *rand.Rand) *storage.Relation {
	tb := data.Generate(data.SyntheticSchema("R", eqSchemaWidth), 3*eqSegCap+50, rng.Int63())
	for r := 0; r < tb.Rows; r++ {
		tb.Cols[0][r] = data.Value(r)
		for a := 1; a < eqSchemaWidth; a++ {
			tb.Cols[a][r] = eqExtreme(rng)
		}
	}
	return storage.BuildColumnMajorSeg(tb, eqSegCap)
}

// TestDeltaRepairEquivalence extends the harness to the partial-result
// layer: every randomized query that classifies as repairable has its
// partials cached, the relation is mutated by random appends, batch appends
// and segment-local reorgs, and the query is then answered via cached
// partials plus a delta rescan of only the changed candidates — the
// repaired result must equal a fresh full scan of the mutated state, the
// rescan set must be disjoint from the version-matched reuse set, and every
// rescanned segment whose cached version the segment's history still knows
// must come back as a suffix of that version. Two closing rounds append
// one row each, so an unfiltered query extends its tail partial by a
// suffix in every relation. The last relation holds values at the int64
// extremes, so prefix and suffix sums wrap.
func TestDeltaRepairEquivalence(t *testing.T) {
	const (
		relations       = 8
		queriesPerRel   = 10
		mutationsPerRel = 4
	)
	rng := rand.New(rand.NewSource(20260730))
	for r := 0; r <= relations; r++ {
		rel := eqRelation(t, rng)
		val := func() data.Value {
			return data.ValueLo + data.Value(rng.Int63n(int64(data.ValueHi-data.ValueLo)))
		}
		if r == relations {
			rel = eqExtremeRelation(rng)
			val = func() data.Value { return eqExtreme(rng) }
		}
		installSnapshotLoader(rel)

		// Collect repairable randomized queries (aggregate and grouped
		// shapes without limits) and seed their partials. The first few
		// slots insist on GROUP BY so grouped delta repair is exercised in
		// every relation's batch regardless of the draw; the next insists
		// on no predicate, so the tail is always one of its candidates.
		type seeded struct {
			q     *query.Query
			prior *PartialResult
		}
		var qs []seeded
		for len(qs) < queriesPerRel {
			q := eqQuery(rng, rel.Rows)
			if len(qs) < 3 && len(q.GroupBy) == 0 {
				continue
			}
			if len(qs) == 3 && q.Where != nil {
				continue
			}
			if !Repairable(q) {
				continue
			}
			prior, err := ExecPartials(rel, q, nil)
			if err != nil {
				t.Fatalf("seed %s: %v", q, err)
			}
			qs = append(qs, seeded{q, prior})
		}
		for _, q := range eqGroupedShapes(rng, rel.Rows) {
			prior, err := ExecPartials(rel, q, nil)
			if err != nil {
				t.Fatalf("seed %s: %v", q, err)
			}
			qs = append(qs, seeded{q, prior})
		}

		suffixes := 0
		for m := 0; m < mutationsPerRel+2; m++ {
			if m < mutationsPerRel {
				eqMutate(t, rng, rel, val)
			} else if err := rel.AppendBatch([][]data.Value{eqTuple(rel, val)}); err != nil {
				t.Fatal(err)
			}
			// Demote a slice of the sealed segments so delta repair reads a
			// mix of flat and encoded-resident candidates every round.
			demoteFraction(rel, 0.5)
			for i := range qs {
				q, prior := qs[i].q, qs[i].prior
				have := prior.Versions()
				// Random worker counts: serial and fanned-out rescans must
				// produce identical partials.
				fresh, reused, err := ExecDelta(rel, q, have, 1+rng.Intn(4), nil)
				if err != nil {
					t.Fatalf("delta %s: %v", q, err)
				}
				for _, si := range reused {
					if v := rel.Segments[si].Version(); v != have[si] {
						t.Fatalf("%s: reused segment %d at version %d, cached %d", q, si, v, have[si])
					}
				}
				for si, sp := range fresh.Segs {
					seg := rel.Segments[si]
					hv, ok := have[si]
					if ok && hv == seg.Version() {
						t.Fatalf("%s: rescanned segment %d whose version never moved", q, si)
					}
					r0, known := seg.RowsAt(hv)
					switch {
					case ok && known && sp.Base != hv:
						t.Fatalf("%s: segment %d grew from %d rows at cached version %d, but came back with base %d",
							q, si, r0, hv, sp.Base)
					case !(ok && known) && sp.Base != 0:
						t.Fatalf("%s: segment %d came back as a suffix of unknown version %d", q, si, sp.Base)
					case ok && known && r0 < seg.Rows:
						suffixes++
					}
				}
				repaired := Repaired(prior, fresh, reused)
				want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
				if err != nil {
					t.Fatal(err)
				}
				if got := repaired.Result(); !got.Equal(want) {
					t.Fatalf("repair diverged on %s after mutation %d:\n got %v\nwant %v",
						q, m, got.Data, want.Data)
				}
				if ref := refGroupedExec(t, rel, q); !want.Equal(ref) {
					t.Fatalf("generic aggregate %s diverged from the row-at-a-time fold after mutation %d:\n got %v\nwant %v",
						q, m, want.Data, ref.Data)
				}
				// The repaired payload becomes the next round's cache, just
				// as the serving layer republishes it.
				qs[i].prior = repaired
			}
		}
		if suffixes == 0 {
			t.Fatalf("relation %d: no repair extended a cached partial by a suffix", r)
		}
	}
}

// BenchmarkEquivalenceHarness times one fixed-seed harness pass (one
// relation, a query batch, every strategy, 50% residency). It rides in the
// CI bench.json artifact so the perf trajectory catches a harness blowup —
// the harness guards every exec PR, so its own cost must stay visible.
func BenchmarkEquivalenceHarness(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rel := eqRelation(b, rng)
	installSnapshotLoader(rel)
	queries := make([]*query.Query, 12)
	for i := range queries {
		queries[i] = eqQuery(rng, rel.Rows)
	}
	strategies := eqStrategies(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			for _, s := range strategies {
				unloadFraction(rel, 0.5)
				if s.rowShape && !RowCovered(rel, q) {
					continue
				}
				if _, err := s.run(rel, q); err != nil && err != ErrUnsupported {
					b.Fatal(err)
				}
			}
		}
	}
}
