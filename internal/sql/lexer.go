// Package sql implements a small hand-written lexer and recursive-descent
// parser for H2O's query class: select-project-aggregate statements over one
// table or a two-table equi-join, with conjunctive/disjunctive comparison
// predicates, e.g.
//
//	select a + b + c from R where d < 10 and e > 20
//	select max(a), sum(b) from R where c >= 0
//	select sum(S.v) from R join S on R.k = S.k where R.t < 100 group by R.g
//
// The parser resolves column names against the relation schemas (qualified
// by table name or alias when joined) and produces the logical query.Query
// representation with all attributes in the combined namespace.
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokLt
	tokLe
	tokGt
	tokGe
	tokEq
	tokNe
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex splits src into tokens, ending with a tokEOF token.
func lex(src string) ([]token, error) {
	var toks []token
	pos := 0
	for {
		t, err := scan(src, skipSpace(src, pos))
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
		pos = t.pos + len(t.text)
	}
}

// scan reads the one token that starts at pos, which must not be space.
// The insert scanner shares it for keywords, the table name and the
// "found" half of its errors, so both parsers split text the same way.
func scan(src string, pos int) (token, error) {
	tok := func(k tokenKind, end int) (token, error) {
		return token{kind: k, text: src[pos:end], pos: pos}, nil
	}
	if pos >= len(src) {
		return tok(tokEOF, pos)
	}
	if end := identEnd(src, pos); end > pos {
		return tok(tokIdent, end)
	}
	if end := digitsEnd(src, pos); end > pos {
		return tok(tokNumber, end)
	}
	next := byte(0)
	if pos+1 < len(src) {
		next = src[pos+1]
	}
	switch src[pos] {
	case ',':
		return tok(tokComma, pos+1)
	case '.':
		return tok(tokDot, pos+1)
	case '(':
		return tok(tokLParen, pos+1)
	case ')':
		return tok(tokRParen, pos+1)
	case '+':
		return tok(tokPlus, pos+1)
	case '-':
		return tok(tokMinus, pos+1)
	case '*':
		return tok(tokStar, pos+1)
	case '/':
		return tok(tokSlash, pos+1)
	case '=':
		return tok(tokEq, pos+1)
	case '<':
		switch next {
		case '=':
			return tok(tokLe, pos+2)
		case '>':
			return tok(tokNe, pos+2)
		}
		return tok(tokLt, pos+1)
	case '>':
		if next == '=' {
			return tok(tokGe, pos+2)
		}
		return tok(tokGt, pos+1)
	case '!':
		if next == '=' {
			return tok(tokNe, pos+2)
		}
	}
	r, _ := utf8.DecodeRuneInString(src[pos:])
	return token{}, fmt.Errorf("sql: unexpected character %q at position %d", r, pos)
}

// skipSpace returns the position of the first non-space rune at or after
// pos. Space is unicode.IsSpace over decoded runes, the class IsInsert
// and strings.Fields use. SQL text mostly separates tokens by one ' ' or
// none, so that case is small enough to inline; any other byte that may
// start a space goes to skipSpaceRunes.
func skipSpace(src string, pos int) int {
	if pos < len(src) && src[pos] == ' ' {
		pos++
	}
	if pos < len(src) && (src[pos] <= ' ' || src[pos] >= utf8.RuneSelf) {
		return skipSpaceRunes(src, pos)
	}
	return pos
}

func skipSpaceRunes(src string, pos int) int {
	for pos < len(src) {
		r, n := utf8.DecodeRuneInString(src[pos:])
		if !unicode.IsSpace(r) {
			return pos
		}
		pos += n
	}
	return pos
}

// identEnd returns the end of the identifier that starts at pos, or pos
// when none does: a letter or '_', then letters, digits and '_', read as
// runes.
func identEnd(src string, pos int) int {
	start := pos
	for pos < len(src) {
		r, n := rune(src[pos]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(src[pos:])
		}
		if !isIdentStart(r) && (pos == start || !unicode.IsDigit(r)) {
			break
		}
		pos += n
	}
	return pos
}

// digitsEnd returns the end of the run of ASCII digits that starts at pos.
func digitsEnd(src string, pos int) int {
	for pos < len(src) && src[pos]-'0' <= 9 {
		pos++
	}
	return pos
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
