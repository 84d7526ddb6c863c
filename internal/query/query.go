// Package query defines the logical query representation shared by the
// parser, the monitoring/adaptation machinery and the execution layer:
// select-project-aggregate queries over one relation — the exact query class
// the paper evaluates (§4: "we focus on scan based queries and we do not
// consider joins") — extended with two-table equi-joins (Query.Joins), the
// first step past the paper's single-relation scope.
//
// A join query addresses attributes in a *combined* namespace: the left
// (FROM) table keeps its schema positions 0..nL-1 and the joined table's
// attributes follow at nL..nL+nR-1, so select items, predicates and group
// keys are ordinary expr trees over a single flat attribute space and every
// downstream classifier works unchanged. The execution layer maps combined
// ids back to per-side schema positions.
package query

import (
	"fmt"
	"sort"
	"strings"

	"h2o/internal/data"
	"h2o/internal/expr"
)

// SelectItem is one output of a query: either a plain expression (projection
// or arithmetic expression) or an aggregate.
type SelectItem struct {
	Agg  *expr.Agg // non-nil for aggregates
	Expr expr.Expr // non-nil for plain expressions
}

// String renders the item in SQL-ish syntax.
func (it SelectItem) String() string {
	if it.Agg != nil {
		return it.Agg.String()
	}
	return it.Expr.String()
}

// Attrs appends the base attributes the item references.
func (it SelectItem) Attrs(dst []data.AttrID) []data.AttrID {
	if it.Agg != nil {
		return it.Agg.Attrs(dst)
	}
	return it.Expr.Attrs(dst)
}

// Join is one equi-join clause: the joined table and the pair of key
// columns the equality ties together. Both keys carry combined-namespace
// attribute ids: LeftKey addresses the accumulated attribute space of the
// tables joined so far (for a two-table join, the FROM table's own
// positions), RightKey addresses the joined table's attributes offset past
// it. Key Names carry the canonical rendering — the bare attribute name for
// FROM-table columns, "table.attr" for joined-table columns — so String()
// round-trips through the parser.
type Join struct {
	Table    string
	LeftKey  expr.Col
	RightKey expr.Col
}

// String renders the clause in SQL-ish syntax.
func (j Join) String() string {
	return fmt.Sprintf("join %s on %s = %s", j.Table, j.LeftKey.String(), j.RightKey.String())
}

// Query is a select-project-aggregate query over a single relation, or — when
// Joins is non-empty — over the equi-join of the FROM relation with the
// joined tables (attributes addressed in the combined namespace, see the
// package comment).
type Query struct {
	Table string
	// Joins lists the equi-join clauses in join order. The representation is
	// N-table-ready; the current execution layer serves exactly one.
	Joins []Join
	Items []SelectItem
	Where expr.Pred // nil when the query has no where clause
	// GroupBy lists the group-key columns, in GROUP BY order, deduplicated.
	// Empty means no grouping. A grouped query's select items must each be
	// either an aggregate or a bare reference to one of these keys; its
	// result has one row per distinct key vector, ordered ascending by key
	// vector, so every execution strategy produces the identical result.
	GroupBy []expr.Col
	// Limit truncates the materialized result to the first N rows; 0 means
	// no limit. Non-aggregate scans honor it with an early exit at segment
	// granularity — once N rows are selected, remaining segments are never
	// read — and the engine trims the last segment's overshoot to exactly
	// N. Aggregates consume every segment regardless (the limit applies to
	// result rows, and an aggregate has one). On grouped queries the limit
	// applies to *groups* after the per-segment group maps merge: the scan
	// still consumes every candidate segment, then the result is trimmed to
	// the first N groups in key order.
	Limit int
}

// String renders the query in SQL-ish syntax.
func (q *Query) String() string {
	parts := make([]string, len(q.Items))
	for i, it := range q.Items {
		parts[i] = it.String()
	}
	s := fmt.Sprintf("select %s from %s", strings.Join(parts, ", "), q.Table)
	for _, j := range q.Joins {
		s += " " + j.String()
	}
	if q.Where != nil {
		s += " where " + q.Where.String()
	}
	if len(q.GroupBy) > 0 {
		keys := make([]string, len(q.GroupBy))
		for i := range q.GroupBy {
			keys[i] = q.GroupBy[i].String()
		}
		s += " group by " + strings.Join(keys, ", ")
	}
	if q.Limit > 0 {
		s += fmt.Sprintf(" limit %d", q.Limit)
	}
	return s
}

// GroupIDs returns the group-key attribute ids in GROUP BY order, or nil
// when the query is not grouped.
func (q *Query) GroupIDs() []data.AttrID {
	if len(q.GroupBy) == 0 {
		return nil
	}
	ids := make([]data.AttrID, len(q.GroupBy))
	for i := range q.GroupBy {
		ids[i] = q.GroupBy[i].ID
	}
	return ids
}

// SelectAttrs returns the sorted set of attributes referenced in the select
// clause, including the group-key columns — the grouped output is keyed by
// them, so layout advice and covering-group resolution must see them.
func (q *Query) SelectAttrs() []data.AttrID {
	var out []data.AttrID
	for _, it := range q.Items {
		out = it.Attrs(out)
	}
	for i := range q.GroupBy {
		out = append(out, q.GroupBy[i].ID)
	}
	return data.SortedUnique(out)
}

// WhereAttrs returns the sorted set of attributes referenced in the where
// clause, or nil when there is none.
func (q *Query) WhereAttrs() []data.AttrID {
	if q.Where == nil {
		return nil
	}
	return data.SortedUnique(q.Where.Attrs(nil))
}

// AllAttrs returns the sorted set of all attributes the query touches,
// including equi-join keys (combined-namespace ids for join queries).
func (q *Query) AllAttrs() []data.AttrID {
	all := data.Union(q.SelectAttrs(), q.WhereAttrs())
	if len(q.Joins) > 0 {
		keys := make([]data.AttrID, 0, 2*len(q.Joins))
		for i := range q.Joins {
			keys = append(keys, q.Joins[i].LeftKey.ID, q.Joins[i].RightKey.ID)
		}
		all = data.Union(all, data.SortedUnique(keys))
	}
	return all
}

// Tables returns every table name the query references: the FROM table
// followed by the joined tables in join order.
func (q *Query) Tables() []string {
	out := make([]string, 0, 1+len(q.Joins))
	out = append(out, q.Table)
	for i := range q.Joins {
		out = append(out, q.Joins[i].Table)
	}
	return out
}

// HasAggregates reports whether any select item is an aggregate.
func (q *Query) HasAggregates() bool {
	for _, it := range q.Items {
		if it.Agg != nil {
			return true
		}
	}
	return false
}

// Info is the access-pattern summary of a query that the monitoring window
// stores: which attributes appear in the select and where clauses. The paper
// keeps the two clauses apart ("differentiating between attributes in the
// select and the where clause allows H2O to consider appropriate data
// layouts").
type Info struct {
	Select []data.AttrID // sorted
	Where  []data.AttrID // sorted
}

// InfoOf summarizes a query.
func InfoOf(q *Query) Info {
	return Info{Select: q.SelectAttrs(), Where: q.WhereAttrs()}
}

// All returns the union of the select- and where-clause attribute sets.
func (in Info) All() []data.AttrID { return data.Union(in.Select, in.Where) }

// Pattern returns a canonical string key for the query's access pattern,
// used for workload-shift detection and per-pattern selectivity estimates.
func (in Info) Pattern() string {
	var b strings.Builder
	b.WriteString("s:")
	writeAttrs(&b, in.Select)
	b.WriteString(";w:")
	writeAttrs(&b, in.Where)
	return b.String()
}

func writeAttrs(b *strings.Builder, attrs []data.AttrID) {
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%d", a)
	}
}

// ---- Builders for the paper's query templates (§4.2.1) ----

// Projection builds template (i): select a, b, ... from R [where pred].
func Projection(table string, attrs []data.AttrID, where expr.Pred) *Query {
	items := make([]SelectItem, len(attrs))
	for i, a := range attrs {
		items[i] = SelectItem{Expr: &expr.Col{ID: a}}
	}
	return &Query{Table: table, Items: items, Where: where}
}

// Aggregation builds template (ii): select max(a), max(b), ... from R
// [where pred], one aggregate per attribute.
func Aggregation(table string, op expr.AggOp, attrs []data.AttrID, where expr.Pred) *Query {
	items := make([]SelectItem, len(attrs))
	for i, a := range attrs {
		items[i] = SelectItem{Agg: &expr.Agg{Op: op, Arg: &expr.Col{ID: a}}}
	}
	return &Query{Table: table, Items: items, Where: where}
}

// GroupedAggregation builds the grouped template:
// select k1, ..., op(a), op(b), ... from R [where pred] group by k1, ... —
// the group keys selected first, then one aggregate per attrs entry.
func GroupedAggregation(table string, op expr.AggOp, attrs []data.AttrID, keys []data.AttrID, where expr.Pred) *Query {
	gb := make([]expr.Col, len(keys))
	items := make([]SelectItem, 0, len(keys)+len(attrs))
	for i, k := range keys {
		gb[i] = expr.Col{ID: k}
		items = append(items, SelectItem{Expr: &expr.Col{ID: k}})
	}
	for _, a := range attrs {
		items = append(items, SelectItem{Agg: &expr.Agg{Op: op, Arg: &expr.Col{ID: a}}})
	}
	return &Query{Table: table, Items: items, Where: where, GroupBy: gb}
}

// ArithExpression builds template (iii): select a + b + ... from R
// [where pred].
func ArithExpression(table string, attrs []data.AttrID, where expr.Pred) *Query {
	return &Query{
		Table: table,
		Items: []SelectItem{{Expr: expr.SumCols(attrs)}},
		Where: where,
	}
}

// AggExpression builds the select-project-aggregate shape of §4.1:
// select sum(a + b + ...) from R [where pred]. Aggregating the expression
// keeps result cardinality at one row, as the paper does "to minimize the
// number of tuples returned".
func AggExpression(table string, attrs []data.AttrID, where expr.Pred) *Query {
	return &Query{
		Table: table,
		Items: []SelectItem{{Agg: &expr.Agg{Op: expr.AggSum, Arg: expr.SumCols(attrs)}}},
		Where: where,
	}
}

// JoinOn builds the equi-join clause joining table with leftKey (a
// combined-namespace id in the left input) equal to the joined table's
// attribute at position rightLocal; leftWidth is the width of the left
// input's attribute space, so the right key lands at leftWidth+rightLocal in
// the combined namespace. Key names follow the synthetic a0..aN convention
// (data.SyntheticSchema), which every test and benchmark schema uses.
func JoinOn(table string, leftKey data.AttrID, rightLocal, leftWidth int) Join {
	return Join{
		Table:    table,
		LeftKey:  expr.Col{ID: leftKey},
		RightKey: expr.Col{ID: leftWidth + rightLocal, Name: fmt.Sprintf("%s.a%d", table, rightLocal)},
	}
}

// PredLt builds the single-column predicate "attr < v".
func PredLt(attr data.AttrID, v data.Value) expr.Pred {
	return &expr.Cmp{Op: expr.Lt, L: &expr.Col{ID: attr}, R: &expr.Const{V: v}}
}

// PredGt builds the single-column predicate "attr > v".
func PredGt(attr data.AttrID, v data.Value) expr.Pred {
	return &expr.Cmp{Op: expr.Gt, L: &expr.Col{ID: attr}, R: &expr.Const{V: v}}
}

// ConjLtGt builds the two-predicate conjunction of the paper's running
// example Q1: "d < v1 and e > v2".
func ConjLtGt(dAttr data.AttrID, v1 data.Value, eAttr data.AttrID, v2 data.Value) expr.Pred {
	return &expr.And{Terms: []expr.Pred{PredLt(dAttr, v1), PredGt(eAttr, v2)}}
}

// RandomAttrs returns k distinct attribute ids drawn from [0, n) using the
// caller-supplied next function (e.g. rand.Intn). Results are sorted.
func RandomAttrs(n, k int, next func(int) int) []data.AttrID {
	if k > n {
		k = n
	}
	seen := make(map[int]bool, k)
	out := make([]data.AttrID, 0, k)
	for len(out) < k {
		a := next(n)
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Ints(out)
	return out
}
