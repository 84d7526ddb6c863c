package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// Join repair harness: every round mutates the pair, answers each join from
// its cached payload through ExecJoinDelta, and demands that
// Repaired(prior, fresh, reused).Result() equal ExecJoin of the current
// state bit for bit. The repaired payload becomes the next round's cache,
// as the serving layer republishes it. Rounds cover each way a cached
// payload ages: probe tail appends (suffix folds), a tail that seals, a
// reorganization-only bump (re-stamp), an append to the build side and a
// flipped greedy choice (both reuse nothing). Before every round a third
// of both inputs' sealed segments are spilled and half of the rest
// demoted, so rescans read every residency.

// jrDomains gives the value domain of each attribute of the harness
// relations; 0 marks the row position. R's a1 and S's a1 are the join
// keys, S's a2 is the small-domain build attribute grouped and filtered on.
var jrDomains = map[string][]int64{
	"R": {0, 64, 64, 1000},
	"S": {0, 64, 8},
}

// jrTuple builds one tuple to append to rel: attribute 0 the next row
// position (keeping it append-ordered, so it zone-map-prunes), the others
// drawn from their domains.
func jrTuple(rel *storage.Relation, rng *rand.Rand) []data.Value {
	dom := jrDomains[rel.Schema.Name]
	tup := make([]data.Value, len(dom))
	tup[0] = data.Value(rel.Rows)
	for a := 1; a < len(dom); a++ {
		tup[a] = data.Value(rng.Int63n(dom[a]))
	}
	return tup
}

// jrRelation builds a column-major harness relation of the named schema.
func jrRelation(name string, rows int, rng *rand.Rand) *storage.Relation {
	dom := jrDomains[name]
	tb := data.GenerateTimeSeries(data.SyntheticSchema(name, len(dom)), rows, rng.Int63())
	for r := 0; r < rows; r++ {
		tb.Cols[0][r] = data.Value(r)
		for a := 1; a < len(dom); a++ {
			tb.Cols[a][r] = data.Value(rng.Int63n(dom[a]))
		}
	}
	return storage.BuildColumnMajorSeg(tb, eqSegCap)
}

// jrAppend appends n tuples to rel in one batch.
func jrAppend(t *testing.T, rel *storage.Relation, n int, rng *rand.Rand) {
	t.Helper()
	batch := make([][]data.Value, n)
	for i := range batch {
		batch[i] = jrTuple(rel, rng)
		batch[i][0] += data.Value(i)
	}
	if err := rel.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
}

// jrResidency faults every segment of rel back in, snapshots the data for
// the loader, then spills a third of the sealed segments and demotes half
// of the rest.
func jrResidency(t *testing.T, rel *storage.Relation) {
	t.Helper()
	for _, seg := range rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		if _, err := seg.Acquire(); err != nil {
			t.Fatal(err)
		}
		seg.Release()
	}
	installSnapshotLoader(rel)
	unloadFraction(rel, 0.34)
	demoteFraction(rel, 0.5)
}

// jrQueries are the repairable join shapes over R ⋈ S on R.a1 = S.a1, in
// the combined namespace (R's a0..a3 are 0..3, S's a0..a2 are 4..6).
func jrQueries() map[string]*query.Query {
	col := func(a data.AttrID) expr.Expr { return &expr.Col{ID: a} }
	agg := func(op expr.AggOp, a data.AttrID) query.SelectItem {
		return query.SelectItem{Agg: &expr.Agg{Op: op, Arg: col(a)}}
	}
	cmp := func(op expr.CmpOp, a data.AttrID, r expr.Expr) expr.Pred {
		return &expr.Cmp{Op: op, L: col(a), R: r}
	}
	c := func(v data.Value) expr.Expr { return &expr.Const{V: v} }
	qs := map[string]*query.Query{
		"scalar": {Items: []query.SelectItem{agg(expr.AggCount, 0), agg(expr.AggSum, 6)}},
		"grouped-on-build": {GroupBy: []expr.Col{{ID: 6}}, Items: []query.SelectItem{
			{Expr: col(6)}, agg(expr.AggSum, 2), agg(expr.AggCount, 0), agg(expr.AggMax, 3)}},
		// Two keys, one per side, a filtered build side and an expression
		// argument: the joined fold's hashed key-vector directory.
		"grouped-on-build-and-probe": {Where: cmp(expr.Lt, 6, c(5)), GroupBy: []expr.Col{{ID: 6}, {ID: 2}}, Items: []query.SelectItem{
			{Expr: col(2)}, {Expr: col(6)}, agg(expr.AggMin, 3), agg(expr.AggAvg, 2),
			{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Arith{Op: expr.Sub, L: col(3), R: col(6)}}}}},
		"agg-expression": {Items: []query.SelectItem{{Agg: &expr.Agg{Op: expr.AggSum, Arg: expr.SumCols([]data.AttrID{2, 6})}}}},
		"min-max-avg":    {Items: []query.SelectItem{agg(expr.AggMin, 3), agg(expr.AggMax, 5), agg(expr.AggAvg, 2)}},
		"residual": {Where: &expr.And{Terms: []expr.Pred{cmp(expr.Lt, 3, col(5)), cmp(expr.Lt, 6, c(6))}},
			Items: []query.SelectItem{agg(expr.AggCount, 0), agg(expr.AggSum, 3)}},
		"tail-window": {Where: &expr.And{Terms: []expr.Pred{cmp(expr.Ge, 0, c(3*eqSegCap)), cmp(expr.Eq, 6, c(3))}},
			Items: []query.SelectItem{agg(expr.AggSum, 3), agg(expr.AggCount, 4)}},
		// S's a0 is a row position, so zone maps prune every build segment.
		"empty-build": {Where: cmp(expr.Lt, 4, c(0)), Items: []query.SelectItem{agg(expr.AggCount, 0), agg(expr.AggSum, 2)}},
	}
	for _, q := range qs {
		q.Table = "R"
		q.Joins = []query.Join{query.JoinOn("S", 1, 1, 4)}
	}
	return qs
}

// jrCase is one cached join: its query and the payload of its last answer.
type jrCase struct {
	name  string
	q     *query.Query
	prior *PartialResult
}

// jrScan is what one repaired answer looked like, for the per-round
// expectations: the have vector it was given and the scan's product.
type jrScan struct {
	c      *jrCase
	have   map[int]uint64
	fresh  *PartialResult
	reused []int
}

// jrRound answers every case from its cached payload, checks the repair
// against ExecJoin and the invariants every scan must keep, re-feeds the
// repaired payloads and returns the scans.
func jrRound(t *testing.T, rng *rand.Rand, step string, left, right *storage.Relation, cases []*jrCase) []jrScan {
	t.Helper()
	jrResidency(t, left)
	jrResidency(t, right)
	var scans []jrScan
	for _, c := range cases {
		var have map[int]uint64
		if c.prior != nil {
			have = c.prior.Versions()
		}
		var st StrategyStats
		fresh, reused, err := ExecJoinDelta(left, right, c.q, have, 1+rng.Intn(4), &st)
		if err != nil {
			t.Fatalf("%s/%s: %v", step, c.name, err)
		}
		if len(st.Touched) != 0 {
			t.Fatalf("%s/%s: join repair reported touched segments %v", step, c.name, st.Touched)
		}
		if fresh.Deps == nil {
			t.Fatalf("%s/%s: join payload without Deps", step, c.name)
		}
		for _, si := range reused {
			if _, ok := fresh.Segs[si]; ok {
				t.Fatalf("%s/%s: segment %d both reused and rescanned", step, c.name, si)
			}
			if si < 0 || have[si] == 0 {
				t.Fatalf("%s/%s: reused segment %d the payload never held", step, c.name, si)
			}
		}
		repaired := Repaired(c.prior, fresh, reused)
		want, err := ExecJoin(left, right, c.q, ExecOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if got := repaired.Result(); !got.Equal(want) {
			t.Fatalf("%s/%s: repaired join diverged:\n got %d rows %v\nwant %d rows %v",
				step, c.name, got.Rows, got.Data, want.Rows, want.Data)
		}
		scans = append(scans, jrScan{c: c, have: have, fresh: fresh, reused: reused})
		c.prior = repaired
	}
	return scans
}

// jrProbeVersions checks that every reused probe segment of s is still at
// its cached version, that every fresh partial whose cached version the
// segment's history still knows extends it, and returns how many fresh
// partials are suffix scans and how many are re-stamps.
func jrProbeVersions(t *testing.T, step string, probe *storage.Relation, s jrScan) (suffixes, restamps int) {
	t.Helper()
	for _, si := range s.reused {
		if v := probe.Segments[si].Version(); v != s.have[si] {
			t.Fatalf("%s/%s: reused segment %d at version %d, cached %d", step, s.c.name, si, v, s.have[si])
		}
	}
	for si, sp := range s.fresh.Segs {
		seg := probe.Segments[si]
		hv, cached := s.have[si]
		r0, known := seg.RowsAt(hv)
		switch {
		case cached && known && sp.Base != hv:
			t.Fatalf("%s/%s: segment %d grew from version %d but came back with base %d", step, s.c.name, si, hv, sp.Base)
		case !(cached && known) && sp.Base != 0:
			t.Fatalf("%s/%s: segment %d extends unknown version %d", step, s.c.name, si, sp.Base)
		case sp.Base != 0 && r0 == seg.Rows:
			if sp.States != nil || sp.Groups != nil {
				t.Fatalf("%s/%s: reorganized segment %d was scanned, not re-stamped", step, s.c.name, si)
			}
			restamps++
		case sp.Base != 0:
			suffixes++
		}
	}
	return suffixes, restamps
}

// jrReusesNothing fails unless every scan of the round reused no partial
// and extended none.
func jrReusesNothing(t *testing.T, step string, scans []jrScan) {
	t.Helper()
	for _, s := range scans {
		if len(s.reused) != 0 {
			t.Fatalf("%s/%s: reused %v", step, s.c.name, s.reused)
		}
		for si, sp := range s.fresh.Segs {
			if sp.Base != 0 {
				t.Fatalf("%s/%s: segment %d extended version %d", step, s.c.name, si, sp.Base)
			}
		}
	}
}

// candidateVersions is rel's candidate segments at their versions for a
// query without predicates on rel's side: every non-empty segment.
func candidateVersions(rel *storage.Relation) map[int]uint64 {
	out := make(map[int]uint64)
	for si, seg := range rel.Segments {
		if seg.Rows > 0 {
			out[si] = seg.Version()
		}
	}
	return out
}

// TestJoinRepairEquivalence drives the harness: R (3 sealed segments and a
// partial tail) probes, the 100-row S builds.
func TestJoinRepairEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	left := jrRelation("R", 3*eqSegCap+50, rng)
	right := jrRelation("S", 100, rng)
	var cases []*jrCase
	for name, q := range jrQueries() {
		if !JoinRepairable(q) {
			t.Fatalf("%s: %s is not join-repairable", name, q)
		}
		cases = append(cases, &jrCase{name: name, q: q})
	}
	// Fixed case order keeps the rng draws, and so the run, reproducible.
	for i := range cases {
		for j := i + 1; j < len(cases); j++ {
			if cases[j].name < cases[i].name {
				cases[i], cases[j] = cases[j], cases[i]
			}
		}
	}

	jrReusesNothing(t, "seed", jrRound(t, rng, "seed", left, right, cases))

	// Probe tail appends: the unfiltered joins fold a suffix of the tail and
	// reuse every sealed segment.
	for round, n := range []int{5, 1, 17} {
		step := fmt.Sprintf("probe append %d", round)
		jrAppend(t, left, n, rng)
		suffixes := 0
		for _, s := range jrRound(t, rng, step, left, right, cases) {
			sx, _ := jrProbeVersions(t, step, left, s)
			suffixes += sx
			if s.c.name == "scalar" && (sx != 1 || len(s.reused) != 3) {
				t.Fatalf("%s/scalar: %d suffixes, reused %v; want the tail's suffix and 3 reused", step, sx, s.reused)
			}
		}
		if suffixes == 0 {
			t.Fatalf("%s: no join folded a suffix", step)
		}
	}

	// The tail seals and a new one starts: the sealed segment's history no
	// longer knows the cached version, so it is rescanned whole.
	oldTail := len(left.Segments) - 1
	jrAppend(t, left, eqSegCap, rng)
	if len(left.Segments)-1 == oldTail {
		t.Fatal("the batch did not seal the tail")
	}
	for _, s := range jrRound(t, rng, "tail seals", left, right, cases) {
		jrProbeVersions(t, "tail seals", left, s)
		if sp, ok := s.fresh.Segs[oldTail]; ok && sp.Base != 0 {
			t.Fatalf("tail seals/%s: the sealed tail extended version %d", s.c.name, sp.Base)
		}
	}

	// A reorganization-only bump on sealed probe segment 1: re-stamped, not
	// scanned.
	seg := left.Segments[1]
	if _, err := seg.Acquire(); err != nil { // the last round may have spilled it
		t.Fatal(err)
	}
	g, err := storage.StitchSeg(seg, []data.AttrID{1, 2, 3})
	if err == nil {
		err = seg.AddGroup(g)
	}
	seg.Release()
	if err != nil {
		t.Fatal(err)
	}
	restamps := 0
	for _, s := range jrRound(t, rng, "reorg", left, right, cases) {
		_, rs := jrProbeVersions(t, "reorg", left, s)
		restamps += rs
	}
	if restamps == 0 {
		t.Fatal("reorg: no join re-stamped the reorganized segment")
	}

	// An append to the build side changes the build candidates: nothing is
	// reused. The next probe append repairs again.
	jrAppend(t, right, 3, rng)
	jrReusesNothing(t, "build append", jrRound(t, rng, "build append", left, right, cases))
	jrAppend(t, left, 2, rng)
	suffixes := 0
	for _, s := range jrRound(t, rng, "probe append after build append", left, right, cases) {
		sx, _ := jrProbeVersions(t, "probe append after build append", left, s)
		suffixes += sx
	}
	if suffixes == 0 {
		t.Fatal("probe append after build append: no join folded a suffix")
	}
}

// TestJoinRepairGreedyFlip: the left side starts smaller and builds; it
// grows, reusing nothing while it is the build side, and once it outgrows
// the right side the build flips to the right. The payload then holds left
// segment indices as probe partials and left versions as dependencies, so
// the flip must reuse nothing either. The round after, the left side is
// the probe side and its appends repair.
func TestJoinRepairGreedyFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	left := jrRelation("R", 60, rng)
	right := jrRelation("S", 2*eqSegCap+20, rng)
	qs := jrQueries()
	cases := []*jrCase{{name: "scalar", q: qs["scalar"]}, {name: "grouped-on-build", q: qs["grouped-on-build"]}}

	jrRound(t, rng, "seed", left, right, cases)
	for _, c := range cases {
		if !equalVersions(c.prior.Deps, candidateVersions(left)) {
			t.Fatalf("seed/%s: deps %v, want the 60-row left side's candidates", c.name, c.prior.Deps)
		}
	}
	jrAppend(t, left, 100, rng)
	jrReusesNothing(t, "build grows", jrRound(t, rng, "build grows", left, right, cases))

	jrAppend(t, left, 200, rng)
	jrReusesNothing(t, "flip", jrRound(t, rng, "flip", left, right, cases))
	for _, c := range cases {
		if !equalVersions(c.prior.Deps, candidateVersions(right)) {
			t.Fatalf("flip/%s: deps %v, want the right side's candidates", c.name, c.prior.Deps)
		}
	}

	jrAppend(t, left, 4, rng)
	for _, s := range jrRound(t, rng, "probe append", left, right, cases) {
		if sx, _ := jrProbeVersions(t, "probe append", left, s); sx != 1 || len(s.reused) == 0 {
			t.Fatalf("probe append/%s: %d suffixes, reused %v; want one suffix and reuse", s.c.name, sx, s.reused)
		}
	}
}

// equalVersions reports whether two segment-version maps are equal.
func equalVersions(a, b map[int]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestJoinPayloadVersions pins the Deps encoding: Versions() emits the
// build dependencies under negative keys, Repaired carries them forward
// and Bytes charges for them.
func TestJoinPayloadVersions(t *testing.T) {
	p := &PartialResult{
		Ops:  []expr.AggOp{expr.AggSum},
		Segs: map[int]*SegPartial{0: {Version: 10}, 2: {Version: 12}},
		Deps: map[int]uint64{0: 20, 1: 21},
	}
	want := map[int]uint64{0: 10, 2: 12, -1: 20, -2: 21}
	if got := p.Versions(); !equalVersions(got, want) {
		t.Fatalf("Versions() = %v, want %v", got, want)
	}
	bare := &PartialResult{Ops: p.Ops, Segs: p.Segs}
	if p.Bytes() <= bare.Bytes() {
		t.Fatalf("Bytes() = %d with deps, %d without; deps must be charged", p.Bytes(), bare.Bytes())
	}
	fresh := &PartialResult{Ops: p.Ops, Segs: map[int]*SegPartial{}, Deps: map[int]uint64{0: 20, 1: 21}}
	if r := Repaired(p, fresh, []int{0, 2}); !equalVersions(r.Versions(), want) {
		t.Fatalf("Repaired payload versions %v, want %v", r.Versions(), want)
	}
}

// BenchmarkJoinRepair compares a full join with a probe-side repair after a
// 64-row append: a 2-segment probe side (one sealed 64K-row segment and a
// 32K-row tail) against a 4096-row build side, with a build filter keeping
// a sixteenth of it. Each iteration appends 64 probe rows untimed, then
// answers the join; the repair re-feeds its payload as the serving layer
// does. Every 256 iterations the pair is rebuilt untimed, so the tail stays
// between 32K and 48K rows however long the benchmark runs.
func BenchmarkJoinRepair(b *testing.B) {
	const (
		segRows = 1 << 16
		evW     = 4
	)
	rng := rand.New(rand.NewSource(2014))
	ev := data.GenerateTimeSeries(data.SyntheticSchema("events", evW), segRows+segRows/2, 1)
	for r := 0; r < ev.Rows; r++ {
		ev.Cols[1][r] &= 4095
	}
	dim := data.Generate(data.SyntheticSchema("dim", 3), 4096, 2)
	for r, k := range rng.Perm(dim.Rows) {
		dim.Cols[0][r] = data.Value(k)
		dim.Cols[1][r] = data.Value(rng.Intn(16))
	}
	q := &query.Query{
		Table: "events",
		Joins: []query.Join{query.JoinOn("dim", 1, 0, evW)},
		Where: &expr.Cmp{Op: expr.Eq, L: &expr.Col{ID: evW + 1}, R: &expr.Const{V: 7}},
		Items: []query.SelectItem{
			{Agg: &expr.Agg{Op: expr.AggCount, Arg: &expr.Col{ID: 0}}},
			{Agg: &expr.Agg{Op: expr.AggSum, Arg: &expr.Col{ID: evW + 2}}},
		},
	}
	var events, dims *storage.Relation
	var next data.Value
	// step appends 64 probe rows, first rebuilding the pair every 256
	// iterations; it reports whether it rebuilt.
	step := func(b *testing.B, i int) bool {
		b.StopTimer()
		defer b.StartTimer()
		rebuilt := i%256 == 0
		if rebuilt {
			events = storage.BuildColumnMajorSeg(ev, segRows)
			dims = storage.BuildColumnMajorSeg(dim, segRows)
			next = data.Value(ev.Rows)
		}
		batch := make([][]data.Value, 64)
		for r := range batch {
			batch[r] = []data.Value{next, data.Value(rng.Intn(4096)), 1, 2}
			next++
		}
		if err := events.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
		return rebuilt
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			step(b, i)
			if _, err := ExecJoin(events, dims, q, ExecOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("repair", func(b *testing.B) {
		var prior *PartialResult
		for i := 0; i < b.N; i++ {
			if step(b, i) {
				b.StopTimer()
				var err error
				if prior, _, err = ExecJoinDelta(events, dims, q, nil, 1, nil); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			fresh, reused, err := ExecJoinDelta(events, dims, q, prior.Versions(), 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			prior = Repaired(prior, fresh, reused)
			_ = prior.Result()
		}
	})
}
