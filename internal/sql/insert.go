package sql

import (
	"fmt"
	"math"
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
//
// It reads src once, byte by byte, and writes the values straight into one
// flat block sized by counting '(' up front; each row is a full-capacity
// subslice of that block, so a statement costs three allocations however
// many rows it holds. It accepts exactly what the token grammar accepts:
// the same space and identifier classes, keywords in any case, and a minus
// sign, which may stand apart from its digits, before any value.
func ParseInsert(src string, r Resolver) (*InsertStmt, error) {
	s := insertScanner{src: src}
	for _, kw := range [...]string{"insert", "into"} {
		if err := s.keyword(kw); err != nil {
			return nil, err
		}
	}
	tbl, err := s.token()
	if err != nil {
		return nil, err
	}
	if tbl.kind != tokIdent {
		return nil, errAt(tbl.pos, "expected table name, found %s", tbl)
	}
	s.pos += len(tbl.text)
	schema, err := r.SchemaOf(tbl.text)
	if err != nil {
		return nil, err
	}
	if err := s.keyword("values"); err != nil {
		return nil, err
	}
	w := schema.NumAttrs()
	// Every row opens with '(', so counting them bounds the rows. An
	// accepted row spans at least 2w+1 bytes, so when stray parentheses
	// inflate the count the block is capped at about half a value per
	// byte of src; the row being scanned always fits below that cap.
	n := strings.Count(src[s.pos:], "(")
	if most := len(src)/(2*w+1) + 1; n > most {
		n = most
	}
	block := make([]data.Value, n*w)
	stmt := &InsertStmt{Table: tbl.text, Rows: make([][]data.Value, 0, n)}
	for {
		if !s.next('(') {
			return nil, s.expected("(")
		}
		lo := len(stmt.Rows) * w
		row := block[lo : lo+w : lo+w]
		if err := s.row(row); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !s.next(',') {
			break
		}
	}
	t, err := s.token()
	if err != nil {
		return nil, err
	}
	if t.kind != tokEOF {
		return nil, errAt(t.pos, "unexpected trailing input %s", t)
	}
	return stmt, nil
}

// insertScanner is ParseInsert's cursor over the statement text.
type insertScanner struct {
	src string
	pos int
}

// next skips space and consumes c if it comes next.
func (s *insertScanner) next(c byte) bool {
	pos := skipSpace(s.src, s.pos)
	ok := pos < len(s.src) && s.src[pos] == c
	if ok {
		pos++
	}
	s.pos = pos
	return ok
}

// token skips space and reads the next token without consuming it.
func (s *insertScanner) token() (token, error) {
	s.pos = skipSpace(s.src, s.pos)
	return scan(s.src, s.pos)
}

// keyword consumes the keyword kw, in any case.
func (s *insertScanner) keyword(kw string) error {
	t, err := s.token()
	if err != nil {
		return err
	}
	if !isKeyword(t, kw) {
		return errAt(t.pos, "expected %q, found %s", kw, t)
	}
	s.pos += len(t.text)
	return nil
}

// errAt formats a syntax error at byte offset pos of the statement.
func errAt(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: %s (at position %d)", fmt.Sprintf(format, args...), pos)
}

// expected reports that what was expected at the cursor but not found.
func (s *insertScanner) expected(what string) error {
	t, err := s.token()
	if err != nil {
		return err
	}
	return errAt(t.pos, "expected %s, found %s", what, t)
}

// row scans the values of one row after its '(' into dst, through the
// closing ')'. A row of any other width than len(dst) is scanned to its
// end, so the error can say how many values it held.
func (s *insertScanner) row(dst []data.Value) error {
	got := 0
	for {
		v, err := s.value()
		if err != nil {
			return err
		}
		if got < len(dst) {
			dst[got] = v
		}
		got++
		if !s.next(',') {
			break
		}
	}
	if !s.next(')') {
		return s.expected(")")
	}
	if got != len(dst) {
		return fmt.Errorf("sql: insert row has %d values, table has %d attributes", got, len(dst))
	}
	return nil
}

// value scans one integer literal with an optional minus sign. Up to 18
// digits cannot overflow, so only longer literals pay for a checked parse;
// the magnitude 2^63 is accepted only after a minus sign.
func (s *insertScanner) value() (data.Value, error) {
	src, pos := s.src, skipSpace(s.src, s.pos)
	neg := pos < len(src) && src[pos] == '-'
	if neg {
		pos = skipSpace(src, pos+1)
	}
	s.pos = digitsEnd(src, pos)
	digits := src[pos:s.pos]
	if digits == "" {
		return 0, s.expected("integer value")
	}
	var mag uint64
	if len(digits) <= 18 {
		for i := 0; i < len(digits); i++ {
			mag = mag*10 + uint64(digits[i]-'0')
		}
	} else {
		limit := uint64(math.MaxInt64)
		if neg {
			limit++
		}
		var err error
		if mag, err = strconv.ParseUint(digits, 10, 64); err != nil || mag > limit {
			return 0, errAt(pos, "invalid integer literal %q", digits)
		}
	}
	if neg {
		return -data.Value(mag), nil
	}
	return data.Value(mag), nil
}
