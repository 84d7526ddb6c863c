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

// Join equivalence harness: the hash-join operator's answer on every
// generated (query, relation pair, residency) combination must be
// bit-identical to a nested-loop reference that never hashes, never prunes,
// never splits predicates and never chooses a build side — it materializes
// both inputs, walks the full cross product in left-major order, and folds
// surviving pairs with the same output machinery mergePartials combines.
// Any divergence in the join-specific code paths (side splitting, greedy
// ordering, rebased accessors, residual evaluation, early termination,
// limit trimming) fails here before it can poison a cached join result.

const (
	jeqLeftWidth  = 4 // asymmetric widths catch combined-id rebasing bugs
	jeqRightWidth = 3
)

// jeqRelation builds one randomized join input over a width-attribute
// schema and returns it with its designated join-key attribute. The key
// column's cardinality is drawn from four regimes — unique (every value
// distinct), dense duplicates (round-robin over a small domain), skewed
// (half the rows pile onto one hot key), and extreme (keys spread over the
// whole int64 domain, which forces the hashed key directory) — all
// null-free, as every value in this engine is. Layout and size
// randomization mirrors eqRelation: mixed per-segment groups, boundary
// sizes, empty relations.
func jeqRelation(t testing.TB, rng *rand.Rand, name string, width int) (*storage.Relation, data.AttrID) {
	t.Helper()
	schema := data.SyntheticSchema(name, width)
	rowChoices := []int{0, 1, eqSegCap - 1, eqSegCap, 3 * eqSegCap, 4*eqSegCap + 77}
	rows := rowChoices[rng.Intn(len(rowChoices))]

	var tb *data.Table
	if rng.Intn(2) == 0 {
		tb = data.GenerateTimeSeries(schema, rows, rng.Int63()) // attr 0 zone-map-prunable
	} else {
		tb = data.Generate(schema, rows, rng.Int63())
	}

	// Rewrite the key column (never attr 0, which stays append-ordered for
	// pruning scenarios) into a controlled small non-negative domain so the
	// two sides of a pair genuinely overlap.
	key := data.AttrID(1 + rng.Intn(width-1))
	switch rng.Intn(4) {
	case 0: // unique: at most one match per probe row
		for r := 0; r < rows; r++ {
			tb.Cols[key][r] = data.Value(r)
		}
	case 1: // dense duplicates
		d := int64(1 + rng.Intn(64))
		for r := 0; r < rows; r++ {
			tb.Cols[key][r] = data.Value(int64(r) % d)
		}
	case 2: // skewed: one hot key carries half the rows
		d := int64(1 + rng.Intn(64))
		for r := 0; r < rows; r++ {
			if rng.Intn(2) == 0 {
				tb.Cols[key][r] = 0
			} else {
				tb.Cols[key][r] = data.Value(rng.Int63n(d))
			}
		}
	case 3: // extreme: both int64 ends, negatives, duplicates
		for r := 0; r < rows; r++ {
			if rng.Intn(4) == 0 {
				tb.Cols[key][r] = data.Value(rng.Uint64()) // any int64, unmatched on the other side
			} else {
				tb.Cols[key][r] = jeqExtremeKeys[rng.Intn(len(jeqExtremeKeys))]
			}
		}
	}

	var rel *storage.Relation
	if rng.Intn(2) == 0 {
		rel = storage.BuildColumnMajorSeg(tb, eqSegCap)
	} else {
		rel = storage.BuildRowMajorSeg(tb, false, eqSegCap)
	}

	// Mixed layouts, as in eqRelation: segments legitimately disagree.
	all := make([]data.AttrID, width)
	for a := range all {
		all[a] = data.AttrID(a)
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
		case 2: // add a random narrow group
			attrs := query.RandomAttrs(width, 2+rng.Intn(2), rng.Intn)
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
	return rel, key
}

// jeqExtremeKeys is the shared key pool of the extreme regime: drawing
// both sides from it makes them overlap, with duplicates, at the int64
// ends and across zero.
var jeqExtremeKeys = []data.Value{math.MinInt64, math.MinInt64 + 1, -1 << 40, -7, -1, 0, 3, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}

// jeqQuery generates one randomized join query over the combined namespace
// [0, nL+nR): projection / aggregates / arithmetic expression / aggregated
// expression / grouped aggregation with keys from either side, a random
// predicate shape (none, single, conjunction, disjunction — terms land on
// either side or mix both, exercising side splitting and the residual),
// and a random limit on materializing shapes. The join usually runs on the
// cardinality-controlled key columns; occasionally on arbitrary attributes,
// whose full-domain values make near-empty results.
func jeqQuery(rng *rand.Rand, rightTable string, nL, nR int, leftKey, rightKey data.AttrID, leftRows int) *query.Query {
	n := nL + nR
	lk, rk := leftKey, rightKey
	if rng.Intn(5) == 0 {
		lk = data.AttrID(rng.Intn(nL))
		rk = data.AttrID(rng.Intn(nR))
	}
	join := query.JoinOn(rightTable, lk, int(rk), nL)

	attrs := query.RandomAttrs(n, 1+rng.Intn(3), rng.Intn)

	var where expr.Pred
	cmp := func() expr.Pred {
		a := data.AttrID(rng.Intn(n))
		ops := []expr.CmpOp{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq, expr.Ne}
		op := ops[rng.Intn(len(ops))]
		v := eqPredConst(rng, a, leftRows)
		if op == expr.Eq || op == expr.Ne {
			// Equality wants a constant the column holds: small values are
			// key and position values, the pool is the extreme regime's.
			switch rng.Intn(3) {
			case 1:
				v = data.Value(rng.Intn(64))
			case 2:
				v = jeqExtremeKeys[rng.Intn(len(jeqExtremeKeys))]
			}
		}
		return &expr.Cmp{Op: op, L: &expr.Col{ID: a}, R: &expr.Const{V: v}}
	}
	switch rng.Intn(4) {
	case 0: // no predicate
	case 1:
		where = cmp()
	case 2:
		where = &expr.And{Terms: []expr.Pred{cmp(), cmp()}}
	case 3:
		// Disjunction: unsplittable, so the side it touches loses zone-map
		// pruning (or it lands in the residual when it spans both sides) —
		// the answer must not change either way.
		where = &expr.Or{L: cmp(), R: cmp()}
	}

	var q *query.Query
	switch rng.Intn(5) {
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
		// Grouped joined aggregates: keys drawn from the combined space, so
		// groups routinely span both sides of the join.
		keys := query.RandomAttrs(n, 1+rng.Intn(2), rng.Intn)
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
				arg = expr.SumCols(query.RandomAttrs(n, 2, rng.Intn))
			}
			items = append(items, query.SelectItem{Agg: &expr.Agg{Op: ops[rng.Intn(len(ops))], Arg: arg}})
		}
		q = &query.Query{Table: "R", Items: items, Where: where, GroupBy: gb}
	}
	q.Joins = []query.Join{join}
	if !q.HasAggregates() && len(q.GroupBy) == 0 && rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(2*eqSegCap)
	}
	if len(q.GroupBy) > 0 && rng.Intn(4) == 0 {
		q.Limit = 1 + rng.Intn(6)
	}
	return q
}

// materializeRows reads every row of rel through the generic interpreter
// (full-width projection, no predicate) into flat row-major data.
func materializeRows(t testing.TB, rel *storage.Relation) []data.Value {
	t.Helper()
	n := rel.Schema.NumAttrs()
	attrs := make([]data.AttrID, n)
	for i := range attrs {
		attrs[i] = data.AttrID(i)
	}
	res, err := Exec(rel, query.Projection("J", attrs, nil), ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatalf("materialize %s: %v", rel.Schema.Name, err)
	}
	return res.Data
}

// nestedLoopJoin is the reference implementation: materialize both inputs,
// walk the full cross product in left-major order, keep pairs whose keys
// match and whose (unsplit) WHERE holds over the combined accessor, fold
// with the shared per-shape machinery, merge, trim. It exercises none of
// the hash-join's decisions — no pruning, no side splitting, no greedy
// ordering, no hash table — so agreement means those decisions are sound.
func nestedLoopJoin(t testing.TB, left, right *storage.Relation, q *query.Query) *Result {
	t.Helper()
	nL := left.Schema.NumAttrs()
	nR := right.Schema.NumAttrs()
	L := materializeRows(t, left)
	R := materializeRows(t, right)
	out := Classify(q)
	j := q.Joins[0]

	p := newPartial(out)
	kvals := make([]data.Value, len(out.GroupBy))
	var lrow, rrow []data.Value
	get := func(a data.AttrID) data.Value {
		if int(a) < nL {
			return lrow[a]
		}
		return rrow[int(a)-nL]
	}
	for lo := 0; lo < len(L); lo += nL {
		lrow = L[lo : lo+nL]
		for ro := 0; ro < len(R); ro += nR {
			rrow = R[ro : ro+nR]
			if lrow[j.LeftKey.ID] != rrow[j.RightKey.ID-nL] {
				continue
			}
			if q.Where != nil && !q.Where.EvalBool(get) {
				continue
			}
			foldJoined(out, p, get, kvals)
		}
	}
	return trimJoinLimit(mergePartials(out, []*partial{p}), q)
}

// checkJoinEquivalence runs ExecJoin serially, with four workers and with
// a random worker count against the nested-loop reference on one (pair,
// query, residency) combination. The
// residency mix is re-established before each run — the previous one
// faulted whatever it probed back in — so the join reads flat, encoded and
// spilled segments side by side on both inputs.
func checkJoinEquivalence(t *testing.T, rng *rand.Rand, left, right *storage.Relation, q *query.Query, residentFrac float64) {
	t.Helper()
	want := nestedLoopJoin(t, left, right, q)
	for _, workers := range []int{0, 4, 1 + rng.Intn(7)} {
		unloadFraction(left, 1-residentFrac)
		demoteFraction(left, 0.5)
		if right != left {
			unloadFraction(right, 1-residentFrac)
			demoteFraction(right, 0.5)
		}
		got, err := ExecJoin(left, right, q, ExecOpts{Workers: workers})
		if err != nil {
			t.Fatalf("hash join (workers=%d) failed on %s (resident %.0f%%): %v", workers, q, residentFrac*100, err)
		}
		if len(q.GroupBy) > 0 && !groupedRowsEqual(got, want) {
			t.Fatalf("hash join (workers=%d) produced wrong groups on %s (resident %.0f%%):\n got %d rows %v\nwant %d rows %v",
				workers, q, residentFrac*100, got.Rows, got.Data, want.Rows, want.Data)
		}
		if !got.Equal(want) {
			t.Fatalf("hash join (workers=%d) diverged on %s (resident %.0f%%):\n got %d rows %v\nwant %d rows %v",
				workers, q, residentFrac*100, got.Rows, got.Data, want.Rows, want.Data)
		}
	}
}

// TestJoinEquivalence is the harness entry point: for each residency level,
// fresh randomized relation pairs (and a self-joined single relation) each
// run a batch of randomized join queries — over 200 (query, pair,
// residency) cases in total, each checked serially and in parallel.
func TestJoinEquivalence(t *testing.T) {
	const (
		pairsPerLevel   = 4
		queriesPerPair  = 18
		selfJoinQueries = 8
	)
	for _, residentFrac := range []float64{0, 0.5, 1} {
		residentFrac := residentFrac
		t.Run(fmt.Sprintf("resident=%.0f%%", residentFrac*100), func(t *testing.T) {
			rng := rand.New(rand.NewSource(20140623 + int64(residentFrac*100)))
			for pr := 0; pr < pairsPerLevel; pr++ {
				left, lk := jeqRelation(t, rng, "R", jeqLeftWidth)
				right, rk := jeqRelation(t, rng, "S", jeqRightWidth)
				installSnapshotLoader(left)
				installSnapshotLoader(right)
				for i := 0; i < queriesPerPair; i++ {
					q := jeqQuery(rng, "S", jeqLeftWidth, jeqRightWidth, lk, rk, left.Rows)
					checkJoinEquivalence(t, rng, left, right, q, residentFrac)
				}
			}
			// Self-join: the same relation is both inputs, so the combined
			// namespace holds two copies of one schema and the operator must
			// not assume the inputs are distinct objects.
			self, sk := jeqRelation(t, rng, "R", jeqLeftWidth)
			installSnapshotLoader(self)
			for i := 0; i < selfJoinQueries; i++ {
				q := jeqQuery(rng, "R", jeqLeftWidth, jeqLeftWidth, sk, sk, self.Rows)
				checkJoinEquivalence(t, rng, self, self, q, residentFrac)
			}
		})
	}
}

// TestJoinEarlyTermination proves the ordering payoff end-to-end: when zone
// maps empty the build side, the probe side is never scanned at all — its
// spilled segments stay spilled — and the result still matches the
// reference.
func TestJoinEarlyTermination(t *testing.T) {
	lschema := data.SyntheticSchema("R", jeqLeftWidth)
	rschema := data.SyntheticSchema("S", jeqRightWidth)
	left := storage.BuildColumnMajorSeg(data.GenerateTimeSeries(lschema, 4*eqSegCap, 11), eqSegCap)
	right := storage.BuildColumnMajorSeg(data.Generate(rschema, 2*eqSegCap, 12), eqSegCap)
	installSnapshotLoader(left)
	installSnapshotLoader(right)
	unloadFraction(left, 1) // every sealed probe candidate starts cold

	// Right-side predicate below the value domain: every right segment's
	// zone map rules it out, so the build side empties under pruning.
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, query.PredLt(jeqLeftWidth+1, data.ValueLo))
	q.Joins = []query.Join{query.JoinOn("S", 2, 0, jeqLeftWidth)}

	var st StrategyStats
	got, err := ExecJoin(left, right, q, ExecOpts{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsScanned != 0 {
		t.Fatalf("scanned %d segments; early termination should scan none", st.SegmentsScanned)
	}
	if st.SegmentsPruned == 0 {
		t.Fatal("no segments pruned; the build side should have been emptied by zone maps")
	}
	for si, seg := range left.Segments[:len(left.Segments)-1] {
		if seg.State() != storage.SegSpilled {
			t.Fatalf("probe segment %d was faulted in (state %v); early termination must leave the probe side cold", si, seg.State())
		}
	}
	// The reference faults both inputs back in, so it runs after the
	// cold-state assertions.
	if !got.Equal(nestedLoopJoin(t, left, right, q)) {
		t.Fatalf("early-terminated join diverged from reference: %v", got.Data)
	}
}

// TestJoinGreedyBuildSide checks the ordering rule is observable: for
// order-insensitive shapes the smaller candidate side builds (the hash
// arena stays proportional to it, whichever side it is), while projections
// always build the right side to preserve left-major output order.
func TestJoinGreedyBuildSide(t *testing.T) {
	small := storage.BuildColumnMajorSeg(data.Generate(data.SyntheticSchema("R", jeqLeftWidth), 64, 21), eqSegCap)
	big := storage.BuildColumnMajorSeg(data.Generate(data.SyntheticSchema("S", jeqRightWidth), 8*eqSegCap, 22), eqSegCap)
	bigLeft := storage.BuildColumnMajorSeg(data.Generate(data.SyntheticSchema("R", jeqLeftWidth), 8*eqSegCap, 23), eqSegCap)
	smallRight := storage.BuildColumnMajorSeg(data.Generate(data.SyntheticSchema("S", jeqRightWidth), 64, 24), eqSegCap)

	agg := func(leftW int) *query.Query {
		q := query.Aggregation("R", expr.AggSum, []data.AttrID{0, data.AttrID(leftW)}, nil)
		q.Joins = []query.Join{query.JoinOn("S", 1, 1, leftW)}
		return q
	}

	// Small left, big right: the left side must build (arena ≤ 64 tuples,
	// one stored attribute each).
	var st StrategyStats
	if _, err := ExecJoin(small, big, agg(jeqLeftWidth), ExecOpts{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.IntermediateWords > 64 {
		t.Fatalf("arena holds %d words; the 64-row side should have built", st.IntermediateWords)
	}

	// Big left, small right: the right side builds — same bound.
	st = StrategyStats{}
	if _, err := ExecJoin(bigLeft, smallRight, agg(jeqLeftWidth), ExecOpts{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.IntermediateWords > 64 {
		t.Fatalf("arena holds %d words; the 64-row side should have built", st.IntermediateWords)
	}

	// Projection over a big right side: order sensitivity forces the right
	// build even though the left is smaller, so the arena scales with it.
	proj := query.Projection("R", []data.AttrID{0, jeqLeftWidth}, nil)
	proj.Joins = []query.Join{query.JoinOn("S", 1, 1, jeqLeftWidth)}
	st = StrategyStats{}
	if _, err := ExecJoin(small, big, proj, ExecOpts{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.IntermediateWords < 8*eqSegCap {
		t.Fatalf("arena holds %d words; projections must build the right side to keep left-major order", st.IntermediateWords)
	}
}

// dirMatches walks x's chain for key k.
func dirMatches(x *joinIndex, k data.Value) []int32 {
	var out []int32
	id := x.dir.find(k)
	if id < 0 {
		return nil
	}
	for t := x.head[id]; t >= 0; t = x.next[t] {
		out = append(out, t)
	}
	return out
}

// TestJoinDirectory checks the key directory against a linear scan: dense
// and hashed builds over the same keys return the same matches, duplicates
// come back in insertion order, keys below the minimum, above the maximum
// or in a gap match nothing, and the directory choice follows the key span
// against the build and probe sizes — a span over the whole int64 domain
// must take the hashed path.
func TestJoinDirectory(t *testing.T) {
	want := func(keys []data.Value, k data.Value) []int32 {
		var out []int32
		for i, x := range keys {
			if x == k {
				out = append(out, int32(i))
			}
		}
		return out
	}
	check := func(name string, x *joinIndex, keys, probes []data.Value) {
		t.Helper()
		for _, k := range probes {
			got, exp := dirMatches(x, k), want(keys, k)
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Fatalf("%s: key %d matched tuples %v, want %v", name, k, got, exp)
			}
		}
	}

	// Small domain with duplicates and gaps: both directory kinds.
	keys := []data.Value{5, 3, 5, 9, 3, 5, 12, -2}
	probes := []data.Value{-3, -2, -1, 3, 4, 5, 6, 9, 10, 12, 13, math.MinInt64, math.MaxInt64}
	index := func(keys []data.Value, probeRows int) *joinIndex {
		return newJoinIndex(keys, joinKeyDir(keys, probeRows))
	}
	hashed := func(keys []data.Value) *joinIndex {
		return newJoinIndex(keys, hashedKeyDir(1, len(keys)))
	}
	dense := index(keys, 0)
	if !dense.dir.dense {
		t.Fatal("span 15 built a hashed directory; want dense")
	}
	check("dense", dense, keys, probes)
	check("hashed", hashed(keys), keys, probes)

	// One tuple.
	one := []data.Value{42}
	check("one dense", index(one, 0), one, []data.Value{41, 42, 43})
	check("one hashed", hashed(one), one, []data.Value{41, 42, 43})

	// The whole int64 domain: the unsigned span must not overflow into a
	// small dense directory.
	wide := []data.Value{math.MinInt64, 0, math.MaxInt64, math.MinInt64, -1, math.MaxInt64, 7}
	d := index(wide, math.MaxInt)
	if d.dir.dense {
		t.Fatal("MinInt64..MaxInt64 span built a dense directory; want hashed")
	}
	check("wide", d, wide, []data.Value{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 7, math.MaxInt64 - 1, math.MaxInt64})

	// The dense bound: at most four slots per build tuple or one per probe
	// row. A two-tuple build with sparse keys and a short probe is hashed.
	for _, c := range []struct {
		keys      []data.Value
		probeRows int
		dense     bool
	}{
		{[]data.Value{0, 7}, 0, true},           // 8 slots, 2 tuples
		{[]data.Value{0, 8}, 0, false},          // 9 slots, 2 tuples
		{[]data.Value{0, 8}, 9, true},           // 9 slots, 9 probe rows
		{[]data.Value{0, 8}, 8, false},          // 9 slots, 8 probe rows
		{[]data.Value{0, 60000}, 100, false},    // sparse keys, short probe
		{[]data.Value{0, 60000}, 1 << 16, true}, // the probe repays the slots
	} {
		if d := joinKeyDir(c.keys, c.probeRows); d.dense != c.dense {
			t.Fatalf("keys %v, %d probe rows: dense=%v, want %v", c.keys, c.probeRows, d.dense, c.dense)
		}
	}
	many := make([]data.Value, 1000)
	for i := range many {
		many[i] = data.Value(i * 4)
	}
	if !joinKeyDir(many, 0).dense {
		t.Fatalf("span of %d slots over %d tuples built a hashed directory; want dense", 4*len(many)-3, len(many))
	}

	// Colliding hashed probes: many distinct full-domain keys with
	// duplicates, dense and hashed agreeing wherever dense applies.
	rng := rand.New(rand.NewSource(33))
	pool := make([]data.Value, 300)
	for i := range pool {
		pool[i] = data.Value(rng.Uint64())
	}
	var big []data.Value
	for i := 0; i < 2000; i++ {
		big = append(big, pool[rng.Intn(len(pool))])
	}
	check("pool", index(big, math.MaxInt), big, append(pool, 0, 1, -1))
	small := make([]data.Value, len(big))
	for i, k := range big {
		small[i] = k & 1023
	}
	check("pool dense", index(small, 0), small, []data.Value{-1, 0, 1, 511, 1023, 1024})
	check("pool hashed", hashed(small), small, []data.Value{-1, 0, 1, 511, 1023, 1024})
}

// BenchmarkJoinHashProbe times the probe-dominated regime: a small build
// side against a large streaming probe side, aggregate output. It rides in
// the CI bench.json artifact next to the single-relation scan benchmarks.
func BenchmarkJoinHashProbe(b *testing.B) {
	left := storage.BuildColumnMajorSeg(data.GenerateTimeSeries(data.SyntheticSchema("R", jeqLeftWidth), 64*eqSegCap, 31), eqSegCap)
	rtb := data.Generate(data.SyntheticSchema("S", jeqRightWidth), 2*eqSegCap, 32)
	for r := 0; r < rtb.Rows; r++ {
		rtb.Cols[1][r] = data.Value(int64(r) % 997)
	}
	right := storage.BuildColumnMajorSeg(rtb, eqSegCap)
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{2, data.AttrID(jeqLeftWidth + 2)}, nil)
	q.Joins = []query.Join{query.JoinOn("S", 1, 1, jeqLeftWidth)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecJoin(left, right, q, ExecOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinTailWindow times the join shape of the serving benchmark's
// churn workload: events ⋈ dim on events.a2 = dim.a0 with a tail-window
// probe filter (a0 >= c, c at the start of the last of 31 column-major
// 64K-row segments, so zone maps prune the other 30) and an equality build
// filter (dim.a1 = 7, a sixteenth of the 4096 dimension rows). The scalar
// variant folds count/sum; the grouped one adds GROUP BY dim.a1.
func BenchmarkJoinTailWindow(b *testing.B) {
	const (
		segRows = 1 << 16
		segs    = 31
		evW     = 8 // events width: dim's attributes start at combined id 8
	)
	schema := data.SyntheticSchema("events", evW)
	segGroups := make([][]*storage.ColumnGroup, segs)
	for s := range segGroups {
		tb := data.GenerateTimeSeries(schema, segRows, int64(2014+s))
		for r := 0; r < segRows; r++ {
			tb.Cols[0][r] += data.Value(s * segRows)
			tb.Cols[1][r] &= 63
			tb.Cols[2][r] &= 4095
		}
		for a := 0; a < evW; a++ {
			segGroups[s] = append(segGroups[s], storage.BuildGroup(tb, []data.AttrID{a}))
		}
	}
	events, err := storage.AssembleRelation(schema, segRows, segGroups)
	if err != nil {
		b.Fatal(err)
	}
	dtb := data.Generate(data.SyntheticSchema("dim", 4), 4096, 2015)
	rng := rand.New(rand.NewSource(2016))
	for r, k := range rng.Perm(dtb.Rows) {
		dtb.Cols[0][r] = data.Value(k) // unique key, shuffled
		dtb.Cols[1][r] = data.Value(rng.Intn(16))
	}
	dim := storage.BuildColumnMajorSeg(dtb, segRows)

	where := &expr.And{Terms: []expr.Pred{
		&expr.Cmp{Op: expr.Ge, L: &expr.Col{ID: 0}, R: &expr.Const{V: (segs - 1) * segRows}},
		&expr.Cmp{Op: expr.Eq, L: &expr.Col{ID: evW + 1}, R: &expr.Const{V: 7}},
	}}
	aggs := []query.SelectItem{
		{Agg: &expr.Agg{Op: expr.AggCount, Arg: &expr.Col{ID: 0}}},
		{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: evW + 2}}},
	}
	join := []query.Join{query.JoinOn("dim", 2, 0, evW)}
	scalar := &query.Query{Table: "events", Joins: join, Where: where, Items: aggs}
	grouped := &query.Query{Table: "events", Joins: join, Where: where,
		GroupBy: []expr.Col{{ID: evW + 1}},
		Items:   append([]query.SelectItem{{Expr: &expr.Col{ID: evW + 1}}}, aggs...)}
	for _, c := range []struct {
		name string
		q    *query.Query
	}{{"scalar", scalar}, {"grouped", grouped}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExecJoin(events, dim, c.q, ExecOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinGroupedAgg times grouped joined aggregation — the shape the
// streaming design exists for: group keys from both sides, aggregates over
// the join, never materializing a joined row.
func BenchmarkJoinGroupedAgg(b *testing.B) {
	ltb := data.GenerateTimeSeries(data.SyntheticSchema("R", jeqLeftWidth), 32*eqSegCap, 41)
	for r := 0; r < ltb.Rows; r++ {
		ltb.Cols[1][r] = data.Value(int64(r) % 256)
		ltb.Cols[3][r] = data.Value(int64(r) % 16)
	}
	left := storage.BuildColumnMajorSeg(ltb, eqSegCap)
	rtb := data.Generate(data.SyntheticSchema("S", jeqRightWidth), eqSegCap, 42)
	for r := 0; r < rtb.Rows; r++ {
		rtb.Cols[0][r] = data.Value(int64(r) % 256)
		rtb.Cols[2][r] = data.Value(int64(r) % 8)
	}
	right := storage.BuildColumnMajorSeg(rtb, eqSegCap)
	q := &query.Query{
		Table: "R",
		Joins: []query.Join{query.JoinOn("S", 1, 0, jeqLeftWidth)},
		Items: []query.SelectItem{
			{Expr: &expr.Col{ID: 3}},
			{Expr: &expr.Col{ID: jeqLeftWidth + 2}},
			{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: 2}}},
			{Agg: &expr.Agg{Op: expr.AggCount, Arg: &expr.Col{ID: 0}}},
		},
		GroupBy: []expr.Col{{ID: 3}, {ID: jeqLeftWidth + 2}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecJoin(left, right, q, ExecOpts{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
