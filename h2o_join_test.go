package h2o_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"h2o"
	"h2o/internal/exec"
	"h2o/internal/storage"
)

// joinTables registers the standard join fixture: R is append-ordered
// time-series data (a0 == row position, so R-side range predicates
// zone-map-prune), S is a smaller dimension-style table whose a0 holds the
// row index 0..rows-1, so "R join S on a0 = S.a0" matches exactly S's rows
// against R's prefix.
func joinTables(db *h2o.DB, rRows, sRows int) (rTab, sTab *h2o.Table) {
	rTab = h2o.GenerateTimeSeries(h2o.SyntheticSchema("R", 4), rRows, 42)
	sTab = h2o.Generate(h2o.SyntheticSchema("S", 3), sRows, 7)
	for r := 0; r < sRows; r++ {
		sTab.Cols[0][r] = int64(r)
	}
	db.AddTable(rTab)
	db.AddTable(sTab)
	return rTab, sTab
}

// TestJoinFacadeEndToEnd drives a two-table join through the SQL facade and
// checks the answer against hand-computed values.
func TestJoinFacadeEndToEnd(t *testing.T) {
	db := h2o.NewDB()
	defer db.Close()
	_, sTab := joinTables(db, 2_000, 600)

	var wantSum int64
	for r := 0; r < 600; r++ {
		wantSum += sTab.Cols[2][r]
	}
	res, info, err := db.Query("select count(a0), sum(S.a2) from R join S on a0 = S.a0")
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Strategy.String(); got != "hash-join" {
		t.Fatalf("strategy = %q, want hash-join", got)
	}
	if res.At(0, 0) != 600 || res.At(0, 1) != wantSum {
		t.Fatalf("count, sum = %d, %d; want 600, %d", res.At(0, 0), res.At(0, 1), wantSum)
	}

	// Grouped joined aggregate with a key from each side, predicate on the
	// left side only.
	res, _, err = db.Query("select count(a0) from R join S on a0 = S.a0 where a0 < 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.At(0, 0) != 100 {
		t.Fatalf("filtered join count = %d, want 100", res.At(0, 0))
	}
}

// TestJoinInvalidationFacade is the join counterpart of the segment-precise
// invalidation acceptance test: a cached join result survives appends to
// segments outside its candidate sets (the probe-pruned R tail), while an
// append to *either* input's candidate set — including the un-predicated S
// side — invalidates it. A miss re-answers the join (by probe-side delta
// repair when only R moved, by a full partial scan after the S append) and
// counts as a miss in ServeStats either way.
func TestJoinInvalidationFacade(t *testing.T) {
	const (
		segCap  = 1024
		rRows   = 5*segCap + segCap/2
		sRows   = 600
		appends = 6
	)
	opts := h2o.DefaultOptions()
	opts.Mode = h2o.ModeFrozen // no adaptation: only appends mutate
	opts.SegmentCapacity = segCap
	db := h2o.NewDBWith(opts)
	defer db.Close()
	joinTables(db, rRows, sRows)
	ctx := context.Background()

	// R-side predicate prunes R's candidates to segment 0; every appended R
	// row carries a huge a0 and lands in later segments, far outside it. S
	// has no predicate, so all of S is always a candidate.
	const joinQ = "select count(a0), sum(S.a2) from R join S on a0 = S.a0 where a0 < 1024"
	const fullQ = "select count(a0) from R join S on a0 = S.a0"

	first, info, err := db.QueryCtx(ctx, joinQ)
	if err != nil || info.CacheHit {
		t.Fatalf("first join query: err=%v hit=%v", err, info.CacheHit)
	}
	if first.At(0, 0) != sRows {
		t.Fatalf("join count = %d, want %d", first.At(0, 0), sRows)
	}
	if _, _, err := db.QueryCtx(ctx, fullQ); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < appends; i++ {
		if _, _, err := db.QueryCtx(ctx, "insert into R values (90000000, 7, 7, 7)"); err != nil {
			t.Fatal(err)
		}
		// The append touched only R's tail — not a candidate of either side
		// of joinQ — so the cached join result is still provably fresh.
		got, infoC, err := db.QueryCtx(ctx, joinQ)
		if err != nil {
			t.Fatal(err)
		}
		if !infoC.CacheHit {
			t.Fatalf("append %d to R's tail invalidated a join pruned away from the tail", i)
		}
		if !got.Equal(first) {
			t.Fatalf("append %d: cached join result changed", i)
		}
		// The unpredicated join reads R's tail, so each R append misses.
		if _, infoF, err := db.QueryCtx(ctx, fullQ); err != nil {
			t.Fatal(err)
		} else if infoF.CacheHit {
			t.Fatalf("append %d: full join served stale from cache", i)
		}
	}

	// An append to S — the other input — must invalidate, even though the
	// new row matches nothing: S's candidate set moved.
	if _, _, err := db.QueryCtx(ctx, "insert into S values (90000000, 1, 1)"); err != nil {
		t.Fatal(err)
	}
	got, infoS, err := db.QueryCtx(ctx, joinQ)
	if err != nil {
		t.Fatal(err)
	}
	if infoS.CacheHit {
		t.Fatal("append to S served a stale cached join")
	}
	if !got.Equal(first) {
		t.Fatal("recomputed join result changed after a non-matching S append")
	}
	if _, infoS2, err := db.QueryCtx(ctx, joinQ); err != nil || !infoS2.CacheHit {
		t.Fatalf("repeat after S append: err=%v hit=%v", err, infoS2.CacheHit)
	}

	// One more R tail append: hits resume.
	if _, _, err := db.QueryCtx(ctx, "insert into R values (90000001, 7, 7, 7)"); err != nil {
		t.Fatal(err)
	}
	if _, infoR, err := db.QueryCtx(ctx, joinQ); err != nil || !infoR.CacheHit {
		t.Fatalf("after final R append: err=%v hit=%v", err, infoR.CacheHit)
	}

	st := db.ServeStats()
	// joinQ: 1 miss, then appends hits, 1 S miss, 1 hit, 1 final hit.
	// fullQ: 1 miss + one per R append.
	wantHits := uint64(appends + 2)
	wantMisses := uint64(appends + 3)
	if st.CacheHits != wantHits || st.CacheMisses != wantMisses {
		t.Fatalf("hits, misses = %d, %d; want %d, %d (stats %+v)",
			st.CacheHits, st.CacheMisses, wantHits, wantMisses, st)
	}
}

// TestJoinShardedTableError: a join referencing a sharded table must fail
// with a descriptive error — through both the serving path and direct
// fingerprinting — never panic.
func TestJoinShardedTableError(t *testing.T) {
	opts := h2o.DefaultOptions()
	opts.Shards = 4
	db := h2o.NewDBWith(opts)
	defer db.Close()
	db.CreateTableFrom(h2o.SyntheticSchema("R", 4), 1_000, 1)
	db.CreateTableFrom(h2o.SyntheticSchema("S", 3), 500, 2)

	const src = "select sum(a1) from R join S on a0 = S.a0"
	_, _, err := db.Query(src)
	if err == nil {
		t.Fatal("join over sharded tables succeeded; want a descriptive error")
	}
	if !strings.Contains(err.Error(), "do not support joins") {
		t.Fatalf("err = %v, want mention of join-over-sharded-tables", err)
	}

	q, err := db.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Fingerprint(q); err == nil || !strings.Contains(err.Error(), "do not support joins") {
		t.Fatalf("Fingerprint err = %v, want mention of join-over-sharded-tables", err)
	}
}

// TestJoinConcurrentStress is the -race stress mix: joined reads (plain,
// filtered, grouped, self-join) race appends to both tables, adaptive
// reorganizations, and budget-driven evictions on both inputs.
func TestJoinConcurrentStress(t *testing.T) {
	opts := h2o.DefaultOptions()
	opts.SegmentCapacity = 256
	opts.MemoryBudgetBytes = 64 << 10 // tight budget: evictions churn residency
	db := h2o.NewDBWith(opts)
	defer db.Close()
	rTab := h2o.GenerateTimeSeries(h2o.SyntheticSchema("R", 4), 2_000, 42)
	sTab := h2o.GenerateTimeSeries(h2o.SyntheticSchema("S", 3), 1_000, 7)
	db.AddTable(rTab)
	db.AddTable(sTab)
	ctx := context.Background()

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var src string
				switch (c + i) % 5 {
				case 0:
					src = "select count(a0), sum(S.a1) from R join S on a0 = S.a0"
				case 1:
					src = fmt.Sprintf("select sum(a1) from R join S on a0 = S.a0 where a0 < %d", 200+i*50)
				case 2:
					src = "select a3, count(S.a2) from R join S on a0 = S.a0 group by a3"
				case 3:
					src = "select count(a0) from R join R on a0 = R.a0"
				default:
					// Single-relation traffic keeps the adaptive advisor
					// reorganizing segments underneath the joins.
					src = fmt.Sprintf("select max(a%d) from R where a0 > %d", (c+i)%4, i*30)
				}
				if _, _, err := db.QueryCtx(ctx, src); err != nil {
					errCh <- fmt.Errorf("client %d query %d (%s): %w", c, i, src, err)
					return
				}
			}
		}(c)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				table, vals := "R", "(90000000, 2, 3, 4)"
				if w == 1 {
					table, vals = "S", "(90000000, 2, 3)"
				}
				if _, _, err := db.QueryCtx(ctx, fmt.Sprintf("insert into %s values %s", table, vals)); err != nil {
					errCh <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // evictor: force both engines over budget repeatedly
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, table := range []string{"R", "S"} {
				eng, err := db.Engine(table)
				if err != nil {
					errCh <- err
					return
				}
				eng.EnforceBudget()
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Final consistency: every S row with a0 == row index still matches R
	// (writer keys 90000000 match on both sides too, pairing every appended
	// R row with every appended S row).
	res, _, err := db.Query("select count(a0) from R join S on a0 = S.a0")
	if err != nil {
		t.Fatal(err)
	}
	if res.At(0, 0) <= 0 {
		t.Fatalf("final join count = %d, want positive", res.At(0, 0))
	}
}

// repairTables registers the join-repair fixture: R (4 attributes, a0 the
// row position, a1 a key in [0, 64)) spans three sealed 1024-row segments
// and a partial tail; S (3 attributes, a0 a key in [0, 64) with
// duplicates, a1 in [0, 8)) is a 200-row dimension table.
func repairTables(t *testing.T, opts h2o.Options) *h2o.DB {
	t.Helper()
	opts.SegmentCapacity = 1024
	db := h2o.NewDBWith(opts)
	rTab := h2o.GenerateTimeSeries(h2o.SyntheticSchema("R", 4), 3*1024+300, 42)
	for r := 0; r < rTab.Rows; r++ {
		rTab.Cols[1][r] = int64(r*7) % 64
	}
	sTab := h2o.Generate(h2o.SyntheticSchema("S", 3), 200, 7)
	for r := 0; r < sTab.Rows; r++ {
		sTab.Cols[0][r] = int64(r) % 64
		sTab.Cols[1][r] = int64(r) % 8
	}
	db.AddTable(rTab)
	db.AddTable(sTab)
	return db
}

// repairJoins are the repairable join shapes the facade tests drive. The
// last puts the appended table on the right, so S, now the left input,
// builds.
var repairJoins = []string{
	"select count(a0), sum(S.a2) from R join S on a1 = S.a0",
	"select S.a1, sum(a2), count(a0) from R join S on a1 = S.a0 group by S.a1",
	"select sum(a2 + S.a2) from R join S on a1 = S.a0",
	"select min(a3), max(S.a2), avg(a2) from R join S on a1 = S.a0 where a3 > 0",
	"select count(a0), sum(R.a2) from S join R on a0 = R.a1 where a1 < 6",
}

// insertR appends one row to R with join key k.
func insertR(t *testing.T, db *h2o.DB, pos, k int) {
	t.Helper()
	if _, _, err := db.QueryCtx(context.Background(), fmt.Sprintf("insert into R values (%d, %d, %d, %d)", pos, k, pos%97, pos%31-15)); err != nil {
		t.Fatal(err)
	}
}

// TestJoinRepairFacade: after each append to R every join shape is
// answered by probe-side repair through QueryCtx, bit for bit equal to a
// full join; an append to S changes the build side, so the next answers
// reuse nothing, and the round after repairs again.
func TestJoinRepairFacade(t *testing.T) {
	opts := h2o.DefaultOptions()
	opts.Mode = h2o.ModeFrozen
	db := repairTables(t, opts)
	defer db.Close()
	ctx := context.Background()

	check := func(round string, wantRepair bool) {
		t.Helper()
		for _, src := range repairJoins {
			got, info, err := db.QueryCtx(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := db.Query(src)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: %s\n got %v\nwant %v", round, src, got.Data, want.Data)
			}
			if info.Strategy.String() != "delta-repair" {
				t.Fatalf("%s: %s ran %v, want delta-repair", round, src, info.Strategy)
			}
			if repaired := info.RepairedSegments > 0; repaired != wantRepair {
				t.Fatalf("%s: %s repaired %d segments, want repair=%v", round, src, info.RepairedSegments, wantRepair)
			}
		}
	}
	check("seed", false)
	pos := 3*1024 + 300
	const rounds = 12
	for i := 0; i < rounds; i++ {
		for n := 0; n <= i%3; n++ {
			insertR(t, db, pos, pos%64)
			pos++
		}
		check(fmt.Sprintf("append %d", i), true)
	}
	if _, _, err := db.QueryCtx(ctx, "insert into S values (9000, 5, 3)"); err != nil {
		t.Fatal(err)
	}
	check("build append", false)
	insertR(t, db, pos, 5)
	check("append after build append", true)

	if st := db.ServeStats(); st.Repaired != uint64(len(repairJoins)*(rounds+1)) {
		t.Fatalf("Repaired = %d, want %d (stats %+v)", st.Repaired, len(repairJoins)*(rounds+1), st)
	}
}

// TestJoinRepairConcurrent is the -race mix for join repair: one writer
// appends to R while readers repeat every join shape through QueryCtx.
// Gated readers hold a read gate across each QueryCtx answer and the
// db.Exec it is compared to, and the writer appends under the write gate,
// so every gated answer must equal db.Exec's. Ungated readers race the
// appends; their join count over a growing R must never fall.
func TestJoinRepairConcurrent(t *testing.T) {
	db := repairTables(t, h2o.DefaultOptions())
	defer db.Close()
	ctx := context.Background()
	qs := make([]*h2o.Query, len(repairJoins))
	for i, src := range repairJoins {
		q, err := db.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}

	var gate sync.RWMutex
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				src := repairJoins[(c+i)%len(repairJoins)]
				gate.RLock()
				got, _, err := db.QueryCtx(ctx, src)
				var want *h2o.Result
				if err == nil {
					want, _, err = db.Exec(qs[(c+i)%len(qs)])
				}
				gate.RUnlock()
				if err != nil {
					errCh <- err
					return
				}
				if !got.Equal(want) {
					errCh <- fmt.Errorf("reader %d: %s answered %v, db.Exec %v", c, src, got.Data, want.Data)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() { // ungated: count(a0) over R ⋈ S only grows as R grows
		defer wg.Done()
		last := int64(-1)
		for i := 0; i < 40; i++ {
			res, _, err := db.QueryCtx(ctx, repairJoins[0])
			if err != nil {
				errCh <- err
				return
			}
			n := res.At(0, 0)
			if n < last {
				errCh <- fmt.Errorf("ungated join count fell from %d to %d", last, n)
				return
			}
			last = n
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			pos := 3*1024 + 300 + i
			gate.Lock()
			_, _, err := db.QueryCtx(ctx, fmt.Sprintf("insert into R values (%d, %d, 1, 2)", pos, i%64))
			gate.Unlock()
			if err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestJoinRepairRefusals pins which queries each delta path refuses. The
// single-relation path (exec.Repairable, exec.ExecDelta) refuses every
// join; exec.JoinRepairable refuses a LIMIT, projections, bare
// expressions, more than one join and self-joins; DB.ExecDelta declines
// (ok=false) whatever JoinRepairable refuses and fails over sharded inputs
// with the join-over-sharded-tables error.
func TestJoinRepairRefusals(t *testing.T) {
	db := repairTables(t, h2o.DefaultOptions())
	defer db.Close()
	sopts := h2o.DefaultOptions()
	sopts.Shards = 2
	sharded := h2o.NewDBWith(sopts)
	defer sharded.Close()
	sharded.CreateTableFrom(h2o.SyntheticSchema("R", 4), 1_000, 1)
	sharded.CreateTableFrom(h2o.SyntheticSchema("S", 3), 500, 2)

	const agg = "select count(a0), sum(S.a2) from R join S on a1 = S.a0"
	twoJoins := func(q *h2o.Query) { q.Joins = append(q.Joins, q.Joins[0]) }
	cases := []struct {
		name      string
		db        *h2o.DB
		src       string
		edit      func(*h2o.Query)
		repairs   bool   // exec.JoinRepairable and DB.ExecDelta's ok
		deltaErr  string // DB.ExecDelta's error, when it fails
		singleRel bool   // run exec.ExecDelta on R's relation
	}{
		{name: "aggregate join", db: db, src: agg, repairs: true, singleRel: true},
		{name: "grouped join", db: db, src: repairJoins[1], repairs: true, singleRel: true},
		{name: "limit", db: db, src: agg + " limit 5", singleRel: true},
		{name: "projection", db: db, src: "select a0, S.a1 from R join S on a1 = S.a0"},
		{name: "bare expression", db: db, src: "select a0 + S.a1 from R join S on a1 = S.a0"},
		{name: "two joins", db: db, src: agg, edit: twoJoins},
		{name: "self-join", db: db, src: "select count(a0) from R join R on a1 = R.a0", singleRel: true},
		{name: "sharded inputs", db: sharded, src: "select sum(a1) from R join S on a0 = S.a0", repairs: true, deltaErr: "do not support joins"},
	}
	for _, c := range cases {
		q, err := c.db.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.edit != nil {
			c.edit(q)
		}
		if exec.Repairable(q) {
			t.Errorf("%s: exec.Repairable accepted a join", c.name)
		}
		if got := exec.JoinRepairable(q); got != c.repairs {
			t.Errorf("%s: exec.JoinRepairable = %v, want %v", c.name, got, c.repairs)
		}
		if c.singleRel {
			eng, err := c.db.Engine("R")
			if err != nil {
				t.Fatal(err)
			}
			err = eng.View(func(rel *storage.Relation) error {
				_, _, err := exec.ExecDelta(rel, q, nil, 1, nil)
				return err
			})
			if err != exec.ErrUnsupported {
				t.Errorf("%s: exec.ExecDelta err = %v, want ErrUnsupported", c.name, err)
			}
		}
		ds, ok, err := c.db.ExecDelta(q, nil)
		switch {
		case c.deltaErr != "":
			if err == nil || !strings.Contains(err.Error(), c.deltaErr) {
				t.Errorf("%s: DB.ExecDelta err = %v, want %q", c.name, err, c.deltaErr)
			}
		case err != nil:
			t.Errorf("%s: DB.ExecDelta: %v", c.name, err)
		case ok != c.repairs || (ok && ds.Fresh.Deps == nil):
			t.Errorf("%s: DB.ExecDelta ok = %v, want %v", c.name, ok, c.repairs)
		}
	}
}
