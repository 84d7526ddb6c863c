package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
)

// Resolver maps a table name to its schema. The engine's catalog implements
// this; tests can use a map.
type Resolver interface {
	SchemaOf(table string) (*data.Schema, error)
}

// SchemaMap is a Resolver backed by a map.
type SchemaMap map[string]*data.Schema

// SchemaOf implements Resolver.
func (m SchemaMap) SchemaOf(table string) (*data.Schema, error) {
	s, ok := m[table]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", table)
	}
	return s, nil
}

// Parse parses a select statement and resolves column references against the
// table's schema obtained from r.
func Parse(src string, r Resolver) (*query.Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, resolver: r}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %s", p.cur())
	}
	return q, nil
}

type parser struct {
	toks     []token
	idx      int
	resolver Resolver
	refs     []tableRef
}

// tableRef is one table occurrence in the FROM clause. base is the offset of
// its attributes in the query's combined attribute namespace: the left table
// occupies [0, nL), a joined table [nL, nL+nR).
type tableRef struct {
	name   string
	alias  string
	schema *data.Schema
	base   int
}

// canonName is the canonical rendering of an attribute of ref: bare for the
// left table, "table.attr" for a joined table. Aliases are canonicalized
// away so equivalent queries normalize to the same String().
func canonName(ref *tableRef, attr string) string {
	if ref.base == 0 {
		return attr
	}
	return ref.name + "." + attr
}

func (p *parser) cur() token  { return p.toks[p.idx] }
func (p *parser) next() token { t := p.toks[p.idx]; p.idx++; return t }

func (p *parser) errf(format string, args ...any) error {
	return errAt(p.cur().pos, format, args...)
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, p.errf("expected %s, found %s", what, p.cur())
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !isKeyword(p.cur(), kw) {
		return p.errf("expected %q, found %s", kw, p.cur())
	}
	p.next()
	return nil
}

// parseSelect parses:
//
//	SELECT items FROM table [alias] [JOIN table [alias] ON col = col]
//	  [WHERE pred] [GROUP BY col (, col)*] [LIMIT n]
//
// The grammar requires the table references before column resolution, so the
// parser first scans ahead for FROM, parses the FROM clause (resolving every
// table's schema into the combined attribute namespace), then rewinds and
// parses the item list. A simpler approach — parse items unresolved then
// bind — would need a second tree pass; scanning ahead keeps the tree
// immutable.
func (p *parser) parseSelect() (*query.Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	// Find FROM at paren depth 0 to locate the table references.
	depth := 0
	fromIdx := -1
	for i := p.idx; i < len(p.toks); i++ {
		switch p.toks[i].kind {
		case tokLParen:
			depth++
		case tokRParen:
			depth--
		case tokIdent:
			if depth == 0 && strings.EqualFold(p.toks[i].text, "from") {
				fromIdx = i
			}
		}
		if fromIdx >= 0 {
			break
		}
	}
	if fromIdx < 0 {
		return nil, fmt.Errorf("sql: missing FROM clause")
	}
	if fromIdx+1 >= len(p.toks) || p.toks[fromIdx+1].kind != tokIdent {
		return nil, fmt.Errorf("sql: missing table name after FROM")
	}
	// Parse the FROM clause first so items can resolve, then rewind.
	itemsIdx := p.idx
	p.idx = fromIdx + 1
	table, joins, err := p.parseTableRefs()
	if err != nil {
		return nil, err
	}
	fromEnd := p.idx
	p.idx = itemsIdx

	var items []query.SelectItem
	if p.cur().kind == tokStar {
		// select * : expand to every attribute of every table reference.
		p.next()
		for ri := range p.refs {
			ref := &p.refs[ri]
			for id, name := range ref.schema.Attrs {
				items = append(items, query.SelectItem{Expr: &expr.Col{ID: ref.base + id, Name: canonName(ref, name)}})
			}
		}
	} else {
		for {
			it, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			items = append(items, it)
			if p.cur().kind == tokComma {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	p.idx = fromEnd

	q := &query.Query{Table: table, Joins: joins, Items: items}
	if isKeyword(p.cur(), "where") {
		p.next()
		pred, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = pred
	}
	if isKeyword(p.cur(), "group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		if err := p.parseGroupBy(q); err != nil {
			return nil, err
		}
	} else if q.HasAggregates() {
		// Without GROUP BY an aggregate select list is one group with no
		// keys: no plain column has one value per result row.
		if _, err := checkAggShape(q, nil); err != nil {
			return nil, err
		}
	}
	if isKeyword(p.cur(), "limit") {
		p.next()
		t, err := p.expect(tokNumber, "limit count")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.text, 10, 32)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: invalid limit %q", t.text)
		}
		q.Limit = int(n)
	}
	return q, nil
}

// parseTableRefs parses `table [alias] (JOIN table [alias] ON col = col)*`
// starting at the token after FROM, filling p.refs, and returns the left
// table's name plus the parsed join clauses. The representation is
// N-table-ready but the execution layer serves exactly one join, so more
// than one JOIN is rejected here with a clear error.
func (p *parser) parseTableRefs() (string, []query.Join, error) {
	t, err := p.expect(tokIdent, "table name")
	if err != nil {
		return "", nil, err
	}
	sch, err := p.resolver.SchemaOf(t.text)
	if err != nil {
		return "", nil, err
	}
	p.refs = append(p.refs, tableRef{name: t.text, schema: sch})
	p.maybeAlias()
	var joins []query.Join
	for isKeyword(p.cur(), "join") {
		if len(p.refs) > 1 {
			return "", nil, p.errf("at most one JOIN per query is supported")
		}
		p.next()
		rt, err := p.expect(tokIdent, "joined table name")
		if err != nil {
			return "", nil, err
		}
		rsch, err := p.resolver.SchemaOf(rt.text)
		if err != nil {
			return "", nil, err
		}
		prev := &p.refs[len(p.refs)-1]
		p.refs = append(p.refs, tableRef{name: rt.text, schema: rsch, base: prev.base + prev.schema.NumAttrs()})
		p.maybeAlias()
		if err := p.expectKeyword("on"); err != nil {
			return "", nil, err
		}
		j, err := p.parseJoinCond(rt.text)
		if err != nil {
			return "", nil, err
		}
		joins = append(joins, j)
	}
	return t.text, joins, nil
}

// maybeAlias consumes an optional alias identifier after a table name. Any
// identifier that is not a clause keyword is taken as the alias for the most
// recently added table reference.
func (p *parser) maybeAlias() {
	t := p.cur()
	if t.kind != tokIdent {
		return
	}
	for _, kw := range [...]string{"join", "on", "where", "group", "limit"} {
		if isKeyword(t, kw) {
			return
		}
	}
	p.refs[len(p.refs)-1].alias = t.text
	p.next()
}

// parseJoinCond parses `col = col` after ON. Only equality between two plain
// columns on opposite sides of the join is accepted; anything else gets a
// descriptive error rather than a silent cross product.
func (p *parser) parseJoinCond(rightTable string) (query.Join, error) {
	a, err := p.resolveColumn()
	if err != nil {
		return query.Join{}, err
	}
	switch p.cur().kind {
	case tokEq:
		p.next()
	case tokLt, tokLe, tokGt, tokGe, tokNe:
		return query.Join{}, p.errf("join conditions must be equalities (a.x = b.y), found %s", p.cur())
	default:
		return query.Join{}, p.errf("expected '=' in join condition, found %s", p.cur())
	}
	b, err := p.resolveColumn()
	if err != nil {
		return query.Join{}, err
	}
	rightBase := p.refs[len(p.refs)-1].base
	var lk, rk expr.Col
	switch {
	case a.ID < rightBase && b.ID >= rightBase:
		lk, rk = *a, *b
	case b.ID < rightBase && a.ID >= rightBase:
		lk, rk = *b, *a
	default:
		return query.Join{}, p.errf("join condition must relate a left-table column to a %s column", rightTable)
	}
	return query.Join{Table: rightTable, LeftKey: lk, RightKey: rk}, nil
}

// resolveColumn parses `ident` or `qualifier . ident` and resolves it to a
// column in the combined attribute namespace. Unqualified names resolve
// left-first across the table references; qualified names match a reference
// by alias first, then table name, and when several references match (a
// self-join without aliases) the last occurrence wins, so `R.k` names the
// joined copy of R. Canonical names come from canonName, so String()
// round-trips regardless of the aliases the input used.
func (p *parser) resolveColumn() (*expr.Col, error) {
	t, err := p.expect(tokIdent, "column name")
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokDot {
		p.next()
		at, err := p.expect(tokIdent, "column name after '.'")
		if err != nil {
			return nil, err
		}
		var ref *tableRef
		for i := range p.refs {
			if p.refs[i].alias == t.text {
				ref = &p.refs[i]
			}
		}
		if ref == nil {
			for i := range p.refs {
				if p.refs[i].name == t.text {
					ref = &p.refs[i]
				}
			}
		}
		if ref == nil {
			return nil, p.errf("unknown table or alias %q", t.text)
		}
		id, err := ref.schema.AttrIndex(at.text)
		if err != nil {
			return nil, fmt.Errorf("sql: %w", err)
		}
		return &expr.Col{ID: ref.base + id, Name: canonName(ref, at.text)}, nil
	}
	var firstErr error
	for i := range p.refs {
		ref := &p.refs[i]
		if id, err := ref.schema.AttrIndex(t.text); err == nil {
			return &expr.Col{ID: ref.base + id, Name: canonName(ref, t.text)}, nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("sql: %w", firstErr)
}

// parseGroupBy parses the key list after GROUP BY, deduplicates it, checks
// that every select item is either an aggregate or a bare group-key column,
// and prepends any group keys missing from the select list so grouped
// results are always keyed by their group columns. The prepend is idempotent:
// re-parsing the canonical String() finds the keys already selected.
func (p *parser) parseGroupBy(q *query.Query) error {
	var keys []expr.Col
	seen := map[data.AttrID]bool{}
	for {
		if op, ok := aggOf(p.cur()); ok && p.idx+1 < len(p.toks) && p.toks[p.idx+1].kind == tokLParen {
			return p.errf("cannot group by aggregate %s(...); group keys must be plain columns", op)
		}
		c, err := p.resolveColumn()
		if err != nil {
			return err
		}
		if !seen[c.ID] {
			seen[c.ID] = true
			keys = append(keys, *c)
		}
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	q.GroupBy = keys

	selected, err := checkAggShape(q, seen)
	if err != nil {
		return err
	}
	var prepend []query.SelectItem
	for i := range keys {
		if !selected[keys[i].ID] {
			k := keys[i]
			prepend = append(prepend, query.SelectItem{Expr: &k})
		}
	}
	if len(prepend) > 0 {
		q.Items = append(prepend, q.Items...)
	}
	return nil
}

// checkAggShape is the shape check of an aggregate select list: every item
// must be an aggregate or a bare column of keys. It returns the keys the
// list selects.
func checkAggShape(q *query.Query, keys map[data.AttrID]bool) (map[data.AttrID]bool, error) {
	selected := map[data.AttrID]bool{}
	for _, it := range q.Items {
		if it.Agg != nil {
			continue
		}
		c, ok := it.Expr.(*expr.Col)
		if !ok || !keys[c.ID] {
			return nil, fmt.Errorf("sql: select item %q must be an aggregate or a group-by column", it.String())
		}
		selected[c.ID] = true
	}
	return selected, nil
}

func (p *parser) parseSelectItem() (query.SelectItem, error) {
	if op, ok := aggOf(p.cur()); ok && p.idx+1 < len(p.toks) && p.toks[p.idx+1].kind == tokLParen {
		p.next() // aggregate name
		p.next() // '('
		arg, err := p.parseExpr()
		if err != nil {
			return query.SelectItem{}, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return query.SelectItem{}, err
		}
		return query.SelectItem{Agg: &expr.Agg{Op: op, Arg: arg}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return query.SelectItem{}, err
	}
	return query.SelectItem{Expr: e}, nil
}

func aggOf(t token) (expr.AggOp, bool) {
	if t.kind != tokIdent {
		return 0, false
	}
	switch strings.ToLower(t.text) {
	case "sum":
		return expr.AggSum, true
	case "max":
		return expr.AggMax, true
	case "min":
		return expr.AggMin, true
	case "count":
		return expr.AggCount, true
	case "avg":
		return expr.AggAvg, true
	default:
		return 0, false
	}
}

// parseOr: parseAnd (OR parseAnd)*
func (p *parser) parseOr() (expr.Pred, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for isKeyword(p.cur(), "or") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &expr.Or{L: l, R: r}
	}
	return l, nil
}

// parseAnd: parsePredAtom (AND parsePredAtom)*; conjunctions flatten into a
// single n-ary And so kernels can evaluate all terms in one pass.
func (p *parser) parseAnd() (expr.Pred, error) {
	first, err := p.parsePredAtom()
	if err != nil {
		return nil, err
	}
	var terms []expr.Pred
	if inner, ok := first.(*expr.And); ok {
		terms = append(terms, inner.Terms...)
	} else {
		terms = append(terms, first)
	}
	for isKeyword(p.cur(), "and") {
		p.next()
		t, err := p.parsePredAtom()
		if err != nil {
			return nil, err
		}
		if inner, ok := t.(*expr.And); ok {
			terms = append(terms, inner.Terms...)
		} else {
			terms = append(terms, t)
		}
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return &expr.And{Terms: terms}, nil
}

// parsePredAtom: '(' parseOr ')' | expr cmpop expr. A leading '(' is
// ambiguous (parenthesized predicate vs. parenthesized arithmetic); the
// parser tries the predicate reading first and backtracks.
func (p *parser) parsePredAtom() (expr.Pred, error) {
	if p.cur().kind == tokLParen {
		save := p.idx
		p.next()
		if pred, err := p.parseOr(); err == nil && p.cur().kind == tokRParen {
			p.next()
			return pred, nil
		}
		p.idx = save
	}
	l, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if isKeyword(p.cur(), "between") {
		// x BETWEEN lo AND hi ≡ x >= lo and x <= hi; BETWEEN's internal AND
		// binds tighter than the conjunction separator.
		p.next()
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &expr.And{Terms: []expr.Pred{
			&expr.Cmp{Op: expr.Ge, L: l, R: lo},
			&expr.Cmp{Op: expr.Le, L: l, R: hi},
		}}, nil
	}
	var op expr.CmpOp
	switch p.cur().kind {
	case tokLt:
		op = expr.Lt
	case tokLe:
		op = expr.Le
	case tokGt:
		op = expr.Gt
	case tokGe:
		op = expr.Ge
	case tokEq:
		op = expr.Eq
	case tokNe:
		op = expr.Ne
	default:
		return nil, p.errf("expected comparison operator, found %s", p.cur())
	}
	p.next()
	r, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &expr.Cmp{Op: op, L: l, R: r}, nil
}

// parseExpr: term (('+'|'-') term)*
func (p *parser) parseExpr() (expr.Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().kind {
		case tokPlus:
			p.next()
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &expr.Arith{Op: expr.Add, L: l, R: r}
		case tokMinus:
			p.next()
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &expr.Arith{Op: expr.Sub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

// parseTerm: factor (('*'|'/') factor)*
func (p *parser) parseTerm() (expr.Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().kind {
		case tokStar:
			p.next()
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			l = &expr.Arith{Op: expr.Mul, L: l, R: r}
		case tokSlash:
			p.next()
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			l = &expr.Arith{Op: expr.Div, L: l, R: r}
		default:
			return l, nil
		}
	}
}

// parseFactor: ident | number | '-' factor | '(' expr ')'
func (p *parser) parseFactor() (expr.Expr, error) {
	switch t := p.cur(); t.kind {
	case tokIdent:
		if isKeyword(t, "from") || isKeyword(t, "where") || isKeyword(t, "and") ||
			isKeyword(t, "or") || isKeyword(t, "between") || isKeyword(t, "limit") ||
			isKeyword(t, "group") || isKeyword(t, "by") ||
			isKeyword(t, "join") || isKeyword(t, "on") {
			return nil, p.errf("expected expression, found keyword %s", t)
		}
		return p.resolveColumn()
	case tokNumber:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid integer literal %s", t)
		}
		return &expr.Const{V: v}, nil
	case tokMinus:
		p.next()
		if n := p.cur(); n.kind == tokNumber {
			// The sign is parsed with the digits, so the int64 minimum,
			// whose magnitude no int64 holds, is a literal too.
			v, err := strconv.ParseInt("-"+n.text, 10, 64)
			if err != nil {
				return nil, p.errf("invalid integer literal %s", n)
			}
			p.next()
			return &expr.Const{V: v}, nil
		}
		inner, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		if k, ok := inner.(*expr.Const); ok {
			if k.V == math.MinInt64 {
				return nil, p.errf("invalid integer literal -%d", k.V)
			}
			return &expr.Const{V: -k.V}, nil
		}
		return &expr.Arith{Op: expr.Sub, L: &expr.Const{V: 0}, R: inner}, nil
	case tokLParen:
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, p.errf("expected expression, found %s", t)
	}
}
