package h2o_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"h2o"
)

func newTestDB(t *testing.T) *h2o.DB {
	t.Helper()
	db := h2o.NewDB()
	db.CreateTableFrom(h2o.SyntheticSchema("events", 12), 5_000, 3)
	return db
}

func TestDBQueryEndToEnd(t *testing.T) {
	db := newTestDB(t)
	res, info, err := db.Query("select max(a1), min(a1), count(a1) from events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 || res.Width() != 3 {
		t.Fatalf("result shape %dx%d", res.Rows, res.Width())
	}
	if res.At(0, 0) < res.At(0, 1) {
		t.Fatal("max < min")
	}
	if res.At(0, 2) != 5000 {
		t.Fatalf("count = %d", res.At(0, 2))
	}
	if info.Duration <= 0 {
		t.Fatal("no duration recorded")
	}
}

func TestDBFilteredProjection(t *testing.T) {
	db := newTestDB(t)
	res, _, err := db.Query("select a2, a3 from events where a0 < -999000000")
	if err != nil {
		t.Fatal(err)
	}
	// ~0.05% selectivity over 5000 rows: a handful of rows at most.
	if res.Rows > 100 {
		t.Fatalf("selective filter returned %d rows", res.Rows)
	}
	// Cross-check with a count on the same predicate.
	cnt, _, err := db.Query("select count(a0) from events where a0 < -999000000")
	if err != nil {
		t.Fatal(err)
	}
	if cnt.At(0, 0) != int64(res.Rows) {
		t.Fatalf("count %d != projected rows %d", cnt.At(0, 0), res.Rows)
	}
}

func TestDBErrors(t *testing.T) {
	db := newTestDB(t)
	if _, _, err := db.Query("select a1 from nope"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, _, err := db.Query("select zz from events"); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, _, err := db.Query("not sql at all"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := db.Engine("nope"); err == nil {
		t.Fatal("Engine(nope) should fail")
	}
	if _, err := db.LayoutSignature("nope"); err == nil {
		t.Fatal("LayoutSignature(nope) should fail")
	}
}

func TestDBCatalog(t *testing.T) {
	db := newTestDB(t)
	db.CreateTableFrom(h2o.SyntheticSchema("other", 4), 100, 1)
	tables := db.Tables()
	if len(tables) != 2 {
		t.Fatalf("tables = %v", tables)
	}
	q, err := db.Parse("select a0 from other")
	if err != nil || q.Table != "other" {
		t.Fatalf("Parse: %v %v", q, err)
	}
	res, _, err := db.Exec(q)
	if err != nil || res.Rows != 100 {
		t.Fatalf("Exec: rows=%v err=%v", res, err)
	}
}

func TestDBAdaptsUnderRepeatedPattern(t *testing.T) {
	db := h2o.NewDBWith(func() h2o.Options {
		o := h2o.DefaultOptions()
		o.Window.InitialSize = 8
		return o
	}())
	db.CreateTableFrom(h2o.SyntheticSchema("t", 30), 20_000, 5)
	src := "select sum(a2 + a5 + a9 + a14) from t where a2 > 0"
	for i := 0; i < 40; i++ {
		if _, _, err := db.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	e, err := db.Engine("t")
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().GroupsCreated == 0 {
		t.Fatal("repeated pattern never produced a column group")
	}
	sig, err := db.LayoutSignature("t")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sig, "[2 5 9 14]") {
		t.Fatalf("layout %q missing expected group", sig)
	}
}

func TestDBLimitAndStar(t *testing.T) {
	db := newTestDB(t)
	res, _, err := db.Query("select * from events limit 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 3 || res.Width() != 12 {
		t.Fatalf("star+limit shape = %dx%d", res.Rows, res.Width())
	}
	// BETWEEN through the full stack.
	res, _, err = db.Query("select count(a0) from events where a0 between -100000000 and 100000000")
	if err != nil {
		t.Fatal(err)
	}
	// ~10% of the [-1e9,1e9) domain over 5000 rows.
	if res.At(0, 0) < 300 || res.At(0, 0) > 700 {
		t.Fatalf("between count = %d, expected ~500", res.At(0, 0))
	}
	// Limit larger than the result is a no-op.
	res, _, err = db.Query("select a0 from events where a0 < -999000000 limit 100000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows > 100 {
		t.Fatalf("rows = %d", res.Rows)
	}
}

func TestDBSaveLoadRoundTrip(t *testing.T) {
	db := h2o.NewDB()
	db.CreateTableFrom(h2o.SyntheticSchema("t", 16), 8_000, 11)
	// Adapt the layout first, so the snapshot carries a non-trivial design.
	for i := 0; i < 30; i++ {
		if _, _, err := db.Query("select sum(a1 + a4 + a8) from t where a1 > 0"); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := db.Query("select max(a1), min(a8) from t")
	if err != nil {
		t.Fatal(err)
	}
	sigBefore, _ := db.LayoutSignature("t")

	path := t.TempDir() + "/t.h2o"
	if err := db.SaveTable("t", path); err != nil {
		t.Fatal(err)
	}

	db2 := h2o.NewDB()
	name, err := db2.LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if name != "t" {
		t.Fatalf("restored name %q", name)
	}
	sigAfter, _ := db2.LayoutSignature("t")
	if sigBefore != sigAfter {
		t.Fatalf("layout not preserved:\n before %s\n after  %s", sigBefore, sigAfter)
	}
	got, _, err := db2.Query("select max(a1), min(a8) from t")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("restored table computes different answers")
	}
	if err := db.SaveTable("missing", path); err == nil {
		t.Fatal("saving unknown table accepted")
	}
}

func TestDBInsertAndCSV(t *testing.T) {
	db := h2o.NewDB()
	tb, err := db.ImportCSV(strings.NewReader("ts,val\n1,10\n2,20\n3,30\n"), "series")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows != 3 {
		t.Fatalf("imported rows = %d", tb.Rows)
	}
	res, _, err := db.Query("select sum(val) from series")
	if err != nil || res.At(0, 0) != 60 {
		t.Fatalf("sum = %v err = %v", res, err)
	}
	// INSERT through SQL: new rows must be visible to every layout.
	ins, _, err := db.Query("insert into series values (4, 40), (5, 50)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.At(0, 0) != 2 {
		t.Fatalf("inserted = %d", ins.At(0, 0))
	}
	res, _, err = db.Query("select sum(val), count(ts) from series")
	if err != nil || res.At(0, 0) != 150 || res.At(0, 1) != 5 {
		t.Fatalf("after insert: %v err = %v", res, err)
	}
	// Inserts into adapted layouts stay consistent.
	for i := 0; i < 30; i++ {
		if _, _, err := db.Query("select sum(ts + val) from series where ts > 0"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.Query("insert into series values (6, 60)"); err != nil {
		t.Fatal(err)
	}
	res, _, err = db.Query("select max(val) from series where ts = 6")
	if err != nil || res.At(0, 0) != 60 {
		t.Fatalf("adapted-layout insert invisible: %v err=%v", res, err)
	}
	// Errors.
	if _, _, err := db.Query("insert into nope values (1)"); err == nil {
		t.Fatal("insert into unknown table accepted")
	}
	if _, _, err := db.Query("insert into series values (1)"); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := db.ImportCSV(strings.NewReader("a\nnope\n"), "bad"); err == nil {
		t.Fatal("bad CSV accepted")
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := h2o.NewSchema("x", []string{"a", "a"}); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	s, err := h2o.NewSchema("x", []string{"a", "b"})
	if err != nil || s.NumAttrs() != 2 {
		t.Fatalf("NewSchema: %v %v", s, err)
	}
}

// TestDBInt64EdgeRoundTrip inserts the int64 extremes through SQL and finds
// each again with an equality predicate on the same literal.
func TestDBInt64EdgeRoundTrip(t *testing.T) {
	db := h2o.NewDB()
	if _, err := db.ImportCSV(strings.NewReader("a0,a1\n0,0\n"), "R"); err != nil {
		t.Fatal(err)
	}
	for i, lit := range []string{"-9223372036854775808", "9223372036854775807"} {
		if _, _, err := db.Query(fmt.Sprintf("insert into R values (%s, %d)", lit, i+1)); err != nil {
			t.Fatalf("insert %s: %v", lit, err)
		}
		res, _, err := db.Query("select count(a1), max(a1), min(a0), max(a0) from R where a0 = " + lit)
		if err != nil {
			t.Fatalf("select %s: %v", lit, err)
		}
		want := []int64{1, int64(i + 1), math.MinInt64, math.MinInt64}
		if i == 1 {
			want[2], want[3] = math.MaxInt64, math.MaxInt64
		}
		for c, w := range want {
			if got := res.At(0, c); got != w {
				t.Errorf("where a0 = %s: column %d = %d, want %d", lit, c, got, w)
			}
		}
	}
	for _, src := range []string{
		"insert into R values (-9223372036854775809, 0)",
		"insert into R values (9223372036854775808, 0)",
		"select count(a1) from R where a0 = 9223372036854775808",
		"select count(a1) from R where a0 = -9223372036854775809",
	} {
		if _, _, err := db.Query(src); err == nil || !strings.Contains(err.Error(), "invalid integer literal") {
			t.Errorf("%s: error %v, want an invalid integer literal", src, err)
		}
	}
}
