package sql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"h2o/internal/data"
)

// InsertStmt is a parsed "insert into T values (...), (...)" statement.
type InsertStmt struct {
	Table string
	Rows  [][]data.Value
}

// IsInsert reports whether src starts with the INSERT keyword; DB front
// ends use it to route between the select and insert parsers. The first
// run of non-space runes (unicode.IsSpace delimits, as strings.Fields
// splits) must equal "insert" under Unicode case folding; nothing is
// allocated.
func IsInsert(src string) bool {
	src = strings.TrimLeftFunc(src, unicode.IsSpace)
	if i := strings.IndexFunc(src, unicode.IsSpace); i >= 0 {
		src = src[:i]
	}
	return strings.EqualFold(src, "insert")
}

// ParseInsert parses an insert statement and validates the tuple widths
// against the table's schema:
//
//	insert into R values (1, 2, 3)
//	insert into R values (1, 2, 3), (4, 5, 6)
func ParseInsert(src string, r Resolver) (*InsertStmt, error) {
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
		row, err := p.parseValueRow(schema.NumAttrs())
		if err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %s", p.cur())
	}
	return stmt, nil
}

// parseValueRow parses "(v, v, ...)" with exactly want integer literals.
func (p *parser) parseValueRow(want int) ([]data.Value, error) {
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	var row []data.Value
	for {
		neg := false
		if p.cur().kind == tokMinus {
			neg = true
			p.next()
		}
		t, err := p.expect(tokNumber, "integer value")
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid integer literal %s", t)
		}
		if neg {
			v = -v
		}
		row = append(row, v)
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	if len(row) != want {
		return nil, fmt.Errorf("sql: insert row has %d values, table has %d attributes", len(row), want)
	}
	return row, nil
}
