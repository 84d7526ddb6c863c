package sql

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
)

func resolver() Resolver {
	return SchemaMap{"R": data.SyntheticSchema("R", 10)}
}

func eval(t *testing.T, e expr.Expr, vals ...data.Value) data.Value {
	t.Helper()
	return e.Eval(func(a data.AttrID) data.Value { return vals[a] })
}

func TestParseProjection(t *testing.T) {
	q, err := Parse("select a1, a2, a3 from R", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "R" || len(q.Items) != 3 || q.Where != nil {
		t.Fatalf("unexpected query: %v", q)
	}
	if !reflect.DeepEqual(q.SelectAttrs(), []data.AttrID{1, 2, 3}) {
		t.Fatalf("SelectAttrs = %v", q.SelectAttrs())
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse("SELECT max(a0), SUM(a1), min(a2), count(a3), avg(a4) FROM R", resolver())
	if err != nil {
		t.Fatal(err)
	}
	ops := []expr.AggOp{expr.AggMax, expr.AggSum, expr.AggMin, expr.AggCount, expr.AggAvg}
	for i, it := range q.Items {
		if it.Agg == nil || it.Agg.Op != ops[i] {
			t.Fatalf("item %d: want agg %v, got %v", i, ops[i], it)
		}
	}
}

func TestParseArithmetic(t *testing.T) {
	q, err := Parse("select a0 + a1 * a2 - 4 / 2 from R", resolver())
	if err != nil {
		t.Fatal(err)
	}
	// Precedence: a0 + (a1*a2) - (4/2)  with vals 1,2,3 → 1+6-2 = 5
	if got := eval(t, q.Items[0].Expr, 1, 2, 3); got != 5 {
		t.Fatalf("precedence eval = %d, want 5", got)
	}
}

func TestParseParensAndUnaryMinus(t *testing.T) {
	q, err := Parse("select (a0 + a1) * -2 from R", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if got := eval(t, q.Items[0].Expr, 3, 4); got != -14 {
		t.Fatalf("eval = %d, want -14", got)
	}
	q, err = Parse("select -a0 from R", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if got := eval(t, q.Items[0].Expr, 9); got != -9 {
		t.Fatalf("unary minus on column = %d, want -9", got)
	}
}

func TestParseWhereConjunction(t *testing.T) {
	q, err := Parse("select a0 from R where a3 < 10 and a4 > 20 and a5 = 7", resolver())
	if err != nil {
		t.Fatal(err)
	}
	and, ok := q.Where.(*expr.And)
	if !ok || len(and.Terms) != 3 {
		t.Fatalf("where should be 3-term conjunction, got %v", q.Where)
	}
	if !reflect.DeepEqual(q.WhereAttrs(), []data.AttrID{3, 4, 5}) {
		t.Fatalf("WhereAttrs = %v", q.WhereAttrs())
	}
}

func TestParseWhereOrAndParens(t *testing.T) {
	q, err := Parse("select a0 from R where (a1 < 5 or a2 > 9) and a3 <> 0", resolver())
	if err != nil {
		t.Fatal(err)
	}
	and, ok := q.Where.(*expr.And)
	if !ok || len(and.Terms) != 2 {
		t.Fatalf("top level should be 2-term And, got %v", q.Where)
	}
	if _, ok := and.Terms[0].(*expr.Or); !ok {
		t.Fatalf("first term should be Or, got %v", and.Terms[0])
	}
}

func TestParseComparisonOps(t *testing.T) {
	for src, op := range map[string]expr.CmpOp{
		"a0 < 1": expr.Lt, "a0 <= 1": expr.Le, "a0 > 1": expr.Gt,
		"a0 >= 1": expr.Ge, "a0 = 1": expr.Eq, "a0 <> 1": expr.Ne, "a0 != 1": expr.Ne,
	} {
		q, err := Parse("select a0 from R where "+src, resolver())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		cmp, ok := q.Where.(*expr.Cmp)
		if !ok || cmp.Op != op {
			t.Fatalf("%s parsed as %v", src, q.Where)
		}
	}
}

func TestParseNegativeConstants(t *testing.T) {
	q, err := Parse("select a0 from R where a1 > -1000000000", resolver())
	if err != nil {
		t.Fatal(err)
	}
	cmp := q.Where.(*expr.Cmp)
	if k, ok := cmp.R.(*expr.Const); !ok || k.V != -1000000000 {
		t.Fatalf("constant = %v", cmp.R)
	}
}

func TestParseExpressionPredicate(t *testing.T) {
	// Predicates over expressions, e.g. (a+b) > X (paper §3.4).
	q, err := Parse("select a0 from R where a1 + a2 > 100", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.WhereAttrs(), []data.AttrID{1, 2}) {
		t.Fatalf("WhereAttrs = %v", q.WhereAttrs())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select from R",
		"select a0",           // missing FROM
		"select a0 from",      // missing table
		"select a0 from Nope", // unknown table
		"select zz from R",    // unknown column
		"select a0 from R where",
		"select a0 from R where a1",          // missing comparison
		"select a0 from R where a1 <",        // missing rhs
		"select a0 from R alias extra",       // trailing tokens after alias
		"select a0 a1 from R",                // missing comma
		"select (a0 from R",                  // unbalanced paren
		"select a0 from R where a1 ! a2",     // bad operator
		"select 99999999999999999999 from R", // overflow literal
		"select a0 @ a1 from R",              // bad character
	}
	for _, src := range bad {
		if _, err := Parse(src, resolver()); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("SeLeCt a0 FrOm R wHeRe a1 < 3 AnD a2 > 4", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if q.Where == nil {
		t.Fatal("where clause lost")
	}
}

func TestParseRoundTrip(t *testing.T) {
	// Parse → String → Parse must preserve the access pattern.
	srcs := []string{
		"select a0, a1 from R where a2 < 5",
		"select max(a0), max(a3) from R where a1 > 2 and a2 < 9",
		"select a0 + a1 + a2 from R",
	}
	for _, src := range srcs {
		q1, err := Parse(src, resolver())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		q2, err := Parse(q1.String(), resolver())
		if err != nil {
			t.Fatalf("re-parse %q: %v", q1.String(), err)
		}
		if !reflect.DeepEqual(q1.SelectAttrs(), q2.SelectAttrs()) ||
			!reflect.DeepEqual(q1.WhereAttrs(), q2.WhereAttrs()) {
			t.Fatalf("round trip changed access pattern for %q", src)
		}
	}
}

func TestParseStar(t *testing.T) {
	q, err := Parse("select * from R", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items) != 10 {
		t.Fatalf("star expanded to %d items, want 10", len(q.Items))
	}
	if !reflect.DeepEqual(q.SelectAttrs(), []data.AttrID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("SelectAttrs = %v", q.SelectAttrs())
	}
	// Star with a where clause.
	q, err = Parse("select * from R where a0 < 5", resolver())
	if err != nil || q.Where == nil {
		t.Fatalf("star+where: %v %v", q, err)
	}
	// Star must stand alone in this dialect.
	if _, err := Parse("select *, a1 from R", resolver()); err == nil {
		t.Fatal("star mixed with columns accepted")
	}
}

func TestParseBetween(t *testing.T) {
	q, err := Parse("select a0 from R where a1 between -5 and 10 and a2 > 3", resolver())
	if err != nil {
		t.Fatal(err)
	}
	and, ok := q.Where.(*expr.And)
	if !ok || len(and.Terms) != 3 {
		t.Fatalf("where = %v; BETWEEN must expand to two terms plus the extra conjunct", q.Where)
	}
	lo := and.Terms[0].(*expr.Cmp)
	hi := and.Terms[1].(*expr.Cmp)
	if lo.Op != expr.Ge || hi.Op != expr.Le {
		t.Fatalf("BETWEEN ops = %v, %v", lo.Op, hi.Op)
	}
	// Evaluate semantics: a1 in [-5, 10].
	holds := func(v data.Value) bool {
		return q.Where.EvalBool(func(a data.AttrID) data.Value {
			return map[data.AttrID]data.Value{1: v, 2: 4, 0: 0}[a]
		})
	}
	if !holds(-5) || !holds(10) || holds(-6) || holds(11) {
		t.Fatal("BETWEEN bounds must be inclusive")
	}
	if _, err := Parse("select a0 from R where a1 between 1", resolver()); err == nil {
		t.Fatal("incomplete BETWEEN accepted")
	}
}

func TestParseLimit(t *testing.T) {
	q, err := Parse("select a0 from R where a1 > 0 limit 7", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 7 {
		t.Fatalf("limit = %d", q.Limit)
	}
	// Limit round-trips through String.
	q2, err := Parse(q.String(), resolver())
	if err != nil || q2.Limit != 7 {
		t.Fatalf("limit round trip: %v %v", q2, err)
	}
	for _, bad := range []string{
		"select a0 from R limit",
		"select a0 from R limit x",
		"select a0 from R limit -1",
		"select a0 from R limit 1 2",
	} {
		if _, err := Parse(bad, resolver()); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseGroupBy(t *testing.T) {
	// Canonical form: keys selected, aggregates after.
	q, err := Parse("select a3, sum(a1), count(a2) from R where a0 > 5 group by a3", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].ID != 3 {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
	if len(q.Items) != 3 || q.Items[0].Agg != nil || q.Items[1].Agg == nil {
		t.Fatalf("Items = %v", q.Items)
	}

	// Unselected keys are prepended, so the result always carries its keys.
	q, err = Parse("select sum(a1) from R group by a3, a4", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Items) != 3 || q.Items[0].Agg != nil || q.Items[1].Agg != nil {
		t.Fatalf("keys not prepended: %v", q.Items)
	}
	if !reflect.DeepEqual(q.SelectAttrs(), []data.AttrID{1, 3, 4}) {
		t.Fatalf("SelectAttrs = %v", q.SelectAttrs())
	}

	// Duplicate keys collapse; the query keeps a single a2 key.
	q, err = Parse("select a2, count(a0) from R group by a2, a2", resolver())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 {
		t.Fatalf("duplicate key kept: %v", q.GroupBy)
	}

	// Key-only grouping (DISTINCT-like) is legal.
	if _, err := Parse("select a1, a2 from R group by a1, a2", resolver()); err != nil {
		t.Fatal(err)
	}

	// String() renders the clause and re-parses to the same shape —
	// idempotent because prepended keys are found already selected.
	q, err = Parse("select sum(a1) from R where a0 < 9 group by a2 limit 4", resolver())
	if err != nil {
		t.Fatal(err)
	}
	s1 := q.String()
	q2, err := Parse(s1, resolver())
	if err != nil {
		t.Fatalf("re-parse %q: %v", s1, err)
	}
	if s2 := q2.String(); s1 != s2 || q2.Limit != 4 ||
		!reflect.DeepEqual(q.GroupIDs(), q2.GroupIDs()) ||
		!reflect.DeepEqual(q.SelectAttrs(), q2.SelectAttrs()) {
		t.Fatalf("round trip changed query: %q vs %q", s1, s2)
	}

	for _, bad := range []string{
		"select a1, sum(a2) from R group by a3",      // bare non-key column
		"select * from R group by a1",                // star selects non-keys
		"select sum(a1) from R group by sum(a2)",     // aggregate as key
		"select sum(a1) from R group by",             // missing key
		"select sum(a1) from R group a2",             // missing BY
		"select sum(a1) from R group by a2,",         // trailing comma
		"select sum(a1) from R group by zz",          // unknown key
		"select sum(a1) from R group by a2 where a0", // clause order
		"select a1 + a2 from R group by a1",          // expression item
	} {
		if _, err := Parse(bad, resolver()); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestParseMixedAggregateSelect: without GROUP BY an aggregate select list
// is one group with no keys, so a plain column or expression beside an
// aggregate has no value for the one result row and is rejected with the
// grouped shape's error. Aggregates alone, and plain items alone, parse.
func TestParseMixedAggregateSelect(t *testing.T) {
	for _, bad := range []string{
		"select a0, sum(a1) from R",
		"select sum(a1), a0 from R where a2 < 5",
		"select a0 + a2, count(a1) from R",
		"select sum(a1), a0 from R limit 3",
	} {
		_, err := Parse(bad, resolver())
		if err == nil || !strings.Contains(err.Error(), "must be an aggregate or a group-by column") {
			t.Errorf("Parse(%q): err = %v, want a select-item shape error", bad, err)
		}
	}
	for _, good := range []string{
		"select sum(a1), count(a0), max(a2 + a3) from R where a0 < 5",
		"select a0, a1 + a2 from R",
		"select a1, sum(a2) from R group by a1",
	} {
		if _, err := Parse(good, resolver()); err != nil {
			t.Errorf("Parse(%q): %v", good, err)
		}
	}
}

func TestParseInsert(t *testing.T) {
	r := SchemaMap{"R": data.SyntheticSchema("R", 3)}
	stmt, err := ParseInsert("insert into R values (1, -2, 3), (4, 5, 6)", r)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Table != "R" || len(stmt.Rows) != 2 {
		t.Fatalf("stmt = %+v", stmt)
	}
	if !reflect.DeepEqual(stmt.Rows[0], []data.Value{1, -2, 3}) {
		t.Fatalf("row 0 = %v", stmt.Rows[0])
	}
	// Rows share one block, but appending to one must not overwrite the next.
	_ = append(stmt.Rows[0], 99)
	if stmt.Rows[1][0] != 4 {
		t.Fatalf("row 1 = %v after appending to row 0", stmt.Rows[1])
	}
	for _, c := range []struct{ src, err string }{
		{"insert into R values (1, 2)", "insert row has 2 values, table has 3 attributes"},
		{"insert into R values (1, 2, 3, 4)", "insert row has 4 values, table has 3 attributes"},
		{"insert into R values (1, 2, 3", `expected ), found end of input`},
		{"insert into Nope values (1, 2, 3)", `unknown table "Nope"`},
		{"insert R values (1, 2, 3)", `expected "into", found "R"`},
		{"insert into R values (1, 2, 3) x", `unexpected trailing input "x" (at position 31)`},
		{"insert into R values (1, 2, 3),", `expected (, found end of input`},
		{"insert into R values (a, 2, 3)", `expected integer value, found "a"`},
		{"insert into R values (--1, 2, 3)", `expected integer value, found "-"`},
		{"insert into R values ()", `expected integer value, found ")"`},
		{"insert into R values", "expected (, found end of input"},
		{"insert into R values (1, 2, 3) ?", `unexpected character '?' at position 31`},
		{"insert into 7 values (1, 2, 3)", `expected table name, found "7"`},
		{"insert into R values (99999999999999999999, 2, 3)", `invalid integer literal "99999999999999999999" (at position 22)`},
		{"insert into R values (1, 2, 3)(4, 5, 6)", `unexpected trailing input "("`},
	} {
		_, err := ParseInsert(c.src, r)
		if err == nil || !strings.HasPrefix(err.Error(), "sql: ") || !strings.Contains(err.Error(), c.err) {
			t.Errorf("ParseInsert(%q) error = %v, want one containing %q", c.src, err, c.err)
		}
	}
}

// TestParseUnicode pins both parsers to rune-wise lexing: identifiers may
// hold any letter, and any Unicode space separates tokens.
func TestParseUnicode(t *testing.T) {
	r := SchemaMap{
		"R":  data.SyntheticSchema("R", 3),
		"Rà": data.SyntheticSchema("Rà", 2),
	}
	for _, c := range []struct {
		src   string
		table string
		rows  [][]data.Value
	}{
		{"insert into Rà values (1, 2)", "Rà", [][]data.Value{{1, 2}}},
		{"insert\u00a0into R\u2003values\u3000(1,\u00852,\u2028-\u20093)", "R", [][]data.Value{{1, 2, -3}}},
		{"\u205finsert into Rà values (4, 5)\u00a0,\n(6, 7)\u1680", "Rà", [][]data.Value{{4, 5}, {6, 7}}},
	} {
		stmt, err := ParseInsert(c.src, r)
		if err != nil {
			t.Errorf("ParseInsert(%q): %v", c.src, err)
			continue
		}
		if stmt.Table != c.table || !reflect.DeepEqual(stmt.Rows, c.rows) {
			t.Errorf("ParseInsert(%q) = %s %v, want %s %v", c.src, stmt.Table, stmt.Rows, c.table, c.rows)
		}
	}
	for _, c := range []struct{ src, err string }{
		{"insert into R\u00e0x values (1, 2)", `unknown table "Ràx"`},
		{"insert into R values (1, 2, 3)\u2603", `unexpected character '☃'`},
		{"insert into R values (1, 2, 3)\xff", "unexpected character '\ufffd' at position 30"},
	} {
		if _, err := ParseInsert(c.src, r); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("ParseInsert(%q) error = %v, want one containing %q", c.src, err, c.err)
		}
	}
	greek, err := data.NewSchema("Σ", []string{"α", "β1"})
	if err != nil {
		t.Fatal(err)
	}
	r["Σ"] = greek
	for _, c := range []struct {
		src  string
		want string
	}{
		{"select a0\u00a0from\u2003Rà", "select a0 from Rà"},
		{"select\u3000a1 from R where\u0085a0 < 5", "select a1 from R where a0 < 5"},
		{"select sum(β1) from Σ where α\u00a0>\u2028-2", "select sum(β1) from Σ where α > -2"},
	} {
		q, err := Parse(c.src, r)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

// TestParseInt64Edges pins the literal range of both parsers to int64:
// the minimum parses though its magnitude does not, and one past either
// end fails with the same error.
func TestParseInt64Edges(t *testing.T) {
	r := SchemaMap{"R": data.SyntheticSchema("R", 2)}
	for _, c := range []struct {
		lit  string
		want int64
		ok   bool
	}{
		{"-9223372036854775808", math.MinInt64, true},
		{"- 9223372036854775808", math.MinInt64, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"-9223372036854775807", -math.MaxInt64, true},
		{"-000000000000000000009", -9, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775809", 0, false},
		{"18446744073709551616", 0, false},
	} {
		stmt, err := ParseInsert("insert into R values (0, "+c.lit+")", r)
		if c.ok != (err == nil) || (c.ok && stmt.Rows[0][1] != c.want) {
			t.Errorf("insert %s: stmt %v, err %v; want %d, ok %v", c.lit, stmt, err, c.want, c.ok)
		}
		if !c.ok && !strings.Contains(fmt.Sprint(err), "invalid integer literal") {
			t.Errorf("insert %s: error %v", c.lit, err)
		}
		q, err := Parse("select a1 from R where a0 = "+c.lit, r)
		if c.ok != (err == nil) {
			t.Errorf("where %s: err %v, want ok %v", c.lit, err, c.ok)
			continue
		}
		if !c.ok {
			if !strings.Contains(err.Error(), "invalid integer literal") {
				t.Errorf("where %s: error %v", c.lit, err)
			}
			continue
		}
		if k, isConst := q.Where.(*expr.Cmp).R.(*expr.Const); !isConst || k.V != c.want {
			t.Errorf("where %s: right side %v, want %d", c.lit, q.Where.(*expr.Cmp).R, c.want)
		}
	}
	// Negating the minimum leaves int64, so it is no literal either.
	if _, err := Parse("select a1 from R where a0 = - -9223372036854775808", r); err == nil ||
		!strings.Contains(err.Error(), "invalid integer literal") {
		t.Errorf("double negation of the minimum: error %v", err)
	}
}

// TestIsInsert pins IsInsert to the first whitespace-delimited field
// compared case-insensitively with "insert", the semantics of
// strings.Fields plus strings.EqualFold.
func TestIsInsert(t *testing.T) {
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"insert into R values (1,2,3)", true},
		{"  INSERT into R values (1,2,3)", true},
		{"\t\n\r\v\finsert into R", true},
		{"\u00a0\u2003Insert into R", true}, // Unicode spaces
		{"insert", true},
		{"insert\n", true},
		{"iNsErT\tinto", true},
		{"inſert into R", true}, // U+017F folds to s
		{"inserts into R", false},
		{"insert(1)", false},
		{"insert,", false},
		{"ins ert", false},
		{"select a0 from R", false},
		{"", false},
		{" \t\n", false},
		{"insertinto R", false},
		{"x insert", false},
	} {
		if got := IsInsert(c.src); got != c.want {
			t.Errorf("IsInsert(%q) = %v, want %v", c.src, got, c.want)
		}
		fields := strings.Fields(c.src)
		if old := len(fields) > 0 && strings.EqualFold(fields[0], "insert"); old != c.want {
			t.Errorf("%q: Fields+EqualFold says %v, the table says %v", c.src, old, c.want)
		}
	}
}

// BenchmarkIsInsert times the statement router's keyword check on a
// select and an insert; it must not allocate.
func BenchmarkIsInsert(b *testing.B) {
	srcs := []string{
		"select sum(a1), count(a2) from R where a0 >= 1000 and a3 < 5 group by a1",
		"insert into R values (1, 2, 3), (4, 5, 6), (7, 8, 9)",
	}
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		if IsInsert(srcs[i&1]) {
			n++
		}
	}
	if n != b.N/2 {
		b.Fatalf("%d inserts in %d calls", n, b.N)
	}
}

func TestLexerPositionsInErrors(t *testing.T) {
	_, err := Parse("select a0 from R where a1 < ?", resolver())
	if err == nil || !strings.Contains(err.Error(), "sql:") {
		t.Fatalf("expected sql error, got %v", err)
	}
}
