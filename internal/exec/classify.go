package exec

import (
	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
)

// OutKind classifies a query's select clause into the shapes the
// specialized kernels serve — the paper's operator templates (§3.4: "the
// available query templates in H2O support select-project-join queries and
// can be extended"). Anything else runs on the generic interpreted operator.
type OutKind int

const (
	// OutProjection: select a, b, c ... (template i).
	OutProjection OutKind = iota
	// OutExpression: select a + b + c (template iii).
	OutExpression
	// OutGrouped: select k1, ..., agg(e), ... [group by k1, ...] — every
	// item is either a decomposable aggregate or a bare group-key column.
	// The result has one row per distinct key vector, ordered ascending by
	// key vector, so every strategy and the delta-repair path produce
	// bit-identical output. A select list of aggregates alone without
	// GROUP BY is the case of no keys (templates ii and §4.1's sum(a+b+c)):
	// every row falls into one group, and the result is exactly one row,
	// qualifying rows or not.
	OutGrouped
	// OutOther: any other select-clause shape; only the generic operator
	// covers it.
	OutOther
)

// String names the shape.
func (k OutKind) String() string {
	switch k {
	case OutProjection:
		return "projection"
	case OutExpression:
		return "expression"
	case OutGrouped:
		return "grouped"
	default:
		return "other"
	}
}

// Outputs is the classified select clause of a query.
type Outputs struct {
	Kind   OutKind
	Labels []string

	ProjAttrs []data.AttrID // OutProjection: projected attributes in order
	ExprAttrs []data.AttrID // OutExpression: summed columns

	// OutGrouped fields. GroupBy holds the group-key attribute ids in
	// GROUP BY order (deduplicated), none for a scalar aggregate. ItemKey
	// maps each select item to its index in GroupBy, or -1 for aggregate
	// items. GroupOps/GroupArgs hold the aggregate items' ops and arguments
	// in select-item order.
	GroupBy   []data.AttrID
	ItemKey   []int
	GroupOps  []expr.AggOp
	GroupArgs []expr.Expr
}

// SumLeaves flattens e if it is a pure sum of column references (the paper's
// arithmetic-expression template) and reports whether it had that shape.
// Attribute order follows the expression's left-to-right order; duplicates
// are preserved (a+a is a legal expression).
func SumLeaves(e expr.Expr) ([]data.AttrID, bool) {
	switch t := e.(type) {
	case *expr.Col:
		return []data.AttrID{t.ID}, true
	case *expr.Arith:
		if t.Op != expr.Add {
			return nil, false
		}
		l, okL := SumLeaves(t.L)
		if !okL {
			return nil, false
		}
		r, okR := SumLeaves(t.R)
		if !okR {
			return nil, false
		}
		return append(l, r...), true
	default:
		return nil, false
	}
}

// Classify inspects the select clause and labels the outputs.
func Classify(q *query.Query) Outputs {
	out := Outputs{Labels: make([]string, len(q.Items))}
	for i, it := range q.Items {
		out.Labels[i] = it.String()
	}
	if len(q.Items) == 0 {
		out.Kind = OutOther
		return out
	}
	if len(q.GroupBy) > 0 || q.HasAggregates() {
		return classifyGrouped(q, out)
	}

	allPlainCols := true
	for _, it := range q.Items {
		if _, ok := it.Expr.(*expr.Col); !ok {
			allPlainCols = false
		}
	}
	switch {
	case allPlainCols:
		out.Kind = OutProjection
		out.ProjAttrs = make([]data.AttrID, len(q.Items))
		for i, it := range q.Items {
			out.ProjAttrs[i] = it.Expr.(*expr.Col).ID
		}
	case len(q.Items) == 1:
		if attrs, ok := SumLeaves(q.Items[0].Expr); ok {
			out.Kind = OutExpression
			out.ExprAttrs = attrs
		} else {
			out.Kind = OutOther
		}
	default:
		out.Kind = OutOther
	}
	return out
}

// classifyGrouped validates the aggregate select shape: every item must be
// an aggregate or a bare reference to a group-by key, so without GROUP BY
// every item must be an aggregate. Any other shape is OutOther, which no
// pipeline executes (the generic pipeline reports a clean error).
func classifyGrouped(q *query.Query, out Outputs) Outputs {
	keys := q.GroupIDs()
	keyIdx := make(map[data.AttrID]int, len(keys))
	for i, a := range keys {
		if _, dup := keyIdx[a]; !dup {
			keyIdx[a] = i
		}
	}
	out.ItemKey = make([]int, len(q.Items))
	for i, it := range q.Items {
		if it.Agg != nil {
			out.ItemKey[i] = -1
			out.GroupOps = append(out.GroupOps, it.Agg.Op)
			out.GroupArgs = append(out.GroupArgs, it.Agg.Arg)
			continue
		}
		c, ok := it.Expr.(*expr.Col)
		if !ok {
			out.Kind = OutOther
			return out
		}
		ki, ok := keyIdx[c.ID]
		if !ok {
			out.Kind = OutOther
			return out
		}
		out.ItemKey[i] = ki
	}
	out.Kind = OutGrouped
	out.GroupBy = keys
	return out
}
