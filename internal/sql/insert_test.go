package sql

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"h2o/internal/data"
)

// refParseInsert is the token-based insert parser, rebuilt from the
// lexer and parser primitives selects use. FuzzParseInsert holds
// ParseInsert's single-pass scanner to it: the two must agree on what they
// accept, the table and every value.
func refParseInsert(src string, r Resolver) (*InsertStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, resolver: r}
	if err := p.expectKeyword("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "table name")
	if err != nil {
		return nil, err
	}
	schema, err := r.SchemaOf(tbl.text)
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: tbl.text}
	for {
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		var row []data.Value
		for {
			sign := ""
			if p.cur().kind == tokMinus {
				sign = "-"
				p.next()
			}
			t, err := p.expect(tokNumber, "integer value")
			if err != nil {
				return nil, err
			}
			v, err := strconv.ParseInt(sign+t.text, 10, 64)
			if err != nil {
				return nil, p.errf("invalid integer literal %s", t)
			}
			row = append(row, v)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		if len(row) != schema.NumAttrs() {
			return nil, p.errf("insert row has %d values, table has %d attributes", len(row), schema.NumAttrs())
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.cur().kind != tokComma {
			break
		}
		p.next()
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %s", p.cur())
	}
	return stmt, nil
}

// insertSQL renders a rows × width insert into table the way the serving
// benchmark does: values uniform over ±1e9, ", " between values and rows.
func insertSQL(table string, rows, width int) string {
	rng := rand.New(rand.NewSource(int64(rows*width) + 1))
	b := []byte("insert into " + table + " values ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, '(')
		for a := 0; a < width; a++ {
			if a > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendInt(b, rng.Int63n(2_000_000_001)-1_000_000_000, 10)
		}
		b = append(b, ')')
	}
	return string(b)
}

func insertSchemas() SchemaMap {
	return SchemaMap{
		"R":      data.SyntheticSchema("R", 3),
		"Rà":     data.SyntheticSchema("Rà", 2),
		"events": data.SyntheticSchema("events", 8),
		"wide":   data.SyntheticSchema("wide", 100),
	}
}

func FuzzParseInsert(f *testing.F) {
	for _, seed := range []string{
		insertSQL("events", 64, 8),
		insertSQL("wide", 64, 100),
		"insert into R values (1, - 5, -6)",
		"insert into R values (-9223372036854775808, 9223372036854775807, 0)",
		"insert into R values (- 9223372036854775808, -9223372036854775809, 9223372036854775808)",
		"insert into R values ()",
		"insert into R values (1, 2, 3), ()",
		"insert into R values (1, 2, 3",
		"insert into R values (1, 2, 3), (4, 5",
		"insert into R values ((1, 2, 3)",
		"INSERT INTO R　VALUES (1,\u00852, -3) ",
		"insert into Rà values (1, 2)",
		"insert into R values (1, 2, 3)\xc2",
		"insert into R values (1, 2, 3) ,",
		"insert into R values (1 2, 3)",
		"insert into R values (1, 2, 3)x",
		"insert into R values (0001, 2, 3)",
	} {
		f.Add(seed)
	}
	r := insertSchemas()
	f.Fuzz(func(t *testing.T, src string) {
		got, gerr := ParseInsert(src, r)
		want, werr := refParseInsert(src, r)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: scanner error %v, reference error %v", src, gerr, werr)
		}
		if gerr != nil {
			if !strings.HasPrefix(gerr.Error(), "sql: ") {
				t.Fatalf("%q: error %q lacks the sql: prefix", src, gerr)
			}
			return
		}
		if got.Table != want.Table || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%q: scanner %s %v, reference %s %v", src, got.Table, got.Rows, want.Table, want.Rows)
		}
	})
}

// TestParseInsertAllocs pins a statement's allocations: the statement,
// its row headers and one value block, however many rows it holds.
func TestParseInsertAllocs(t *testing.T) {
	r := insertSchemas()
	for _, src := range []string{insertSQL("events", 64, 8), insertSQL("wide", 64, 100)} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ParseInsert(src, r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("ParseInsert of %.20q...: %.0f allocations, want at most 3", src, allocs)
		}
	}
}

var sinkInsert *InsertStmt

// BenchmarkParseInsert times the serving benchmark's insert shapes: 64
// rows of the 8-attribute events table and of the 100-attribute wide one.
func BenchmarkParseInsert(b *testing.B) {
	r := insertSchemas()
	for _, c := range []struct {
		name  string
		width int
	}{{"events", 8}, {"wide", 100}} {
		src := insertSQL(c.name, 64, c.width)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				stmt, err := ParseInsert(src, r)
				if err != nil {
					b.Fatal(err)
				}
				sinkInsert = stmt
			}
		})
	}
}
