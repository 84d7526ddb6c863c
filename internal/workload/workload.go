// Package workload generates the query sequences and relations of every
// experiment in the paper's evaluation (§4): projectivity and selectivity
// sweeps for the motivation and sensitivity figures, the 100-query evolving
// workload of §4.1, the 60-query shifting workload of Figure 9, oscillating
// workloads, and a simulator for the SkyServer (SDSS) trace used in
// Figure 8.
//
// Generators are deterministic in their seed so every experiment — and
// every CI run — replays the identical query sequence.
package workload

import (
	"math/rand"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
)

// QueryClass selects one of the paper's §4.2.1 query templates.
type QueryClass int

const (
	// ClassProjection: select a, b, ... (template i).
	ClassProjection QueryClass = iota
	// ClassAggregation: select max(a), max(b), ... (template ii).
	ClassAggregation
	// ClassExpression: select a + b + ... (template iii).
	ClassExpression
	// ClassAggExpression: select sum(a + b + ...) — §4.1's
	// select-project-aggregate mix (one result row).
	ClassAggExpression
)

// String names the class.
func (c QueryClass) String() string {
	switch c {
	case ClassProjection:
		return "projection"
	case ClassAggregation:
		return "aggregation"
	case ClassExpression:
		return "expression"
	case ClassAggExpression:
		return "agg-expression"
	default:
		return "unknown"
	}
}

// Build constructs a query of the class over attrs with the given predicate.
func (c QueryClass) Build(table string, attrs []data.AttrID, where expr.Pred) *query.Query {
	switch c {
	case ClassProjection:
		return query.Projection(table, attrs, where)
	case ClassAggregation:
		return query.Aggregation(table, expr.AggMax, attrs, where)
	case ClassExpression:
		return query.ArithExpression(table, attrs, where)
	case ClassAggExpression:
		return query.AggExpression(table, attrs, where)
	default:
		panic("workload: unknown query class")
	}
}

// DialPredicate builds the fixed-selectivity predicate used by sweep
// workloads: a comparison on the selectivity-dial attribute of a
// data.GenerateSelective table that qualifies exactly fraction sel of rows.
func DialPredicate(rows int, sel float64) expr.Pred {
	return query.PredLt(0, data.SelectivityCut(rows, sel))
}

// SweepPoint is one x-axis position of a projectivity or selectivity sweep.
type SweepPoint struct {
	Label string
	Query *query.Query
}

// ProjectivitySweep builds the Figures 1/2 and 10(a-c) x-axis: queries of
// class c accessing k attributes for each k in counts, with an optional
// fixed-selectivity filter (sel < 0 disables the where clause). Attributes
// are drawn deterministically from seed; the dial attribute (0) is included
// when a filter is requested, mirroring the paper's "the attributes accessed
// in the where clause and in the select clause are the same".
func ProjectivitySweep(table string, nAttrs, rows int, counts []int, c QueryClass, sel float64, seed int64) []SweepPoint {
	rng := rand.New(rand.NewSource(seed))
	out := make([]SweepPoint, 0, len(counts))
	for _, k := range counts {
		var attrs []data.AttrID
		var where expr.Pred
		if sel >= 0 {
			where = DialPredicate(rows, sel)
			attrs = append([]data.AttrID{0}, query.RandomAttrs(nAttrs-1, max(k-1, 1), func(n int) int { return 1 + rng.Intn(n) })...)
		} else {
			attrs = query.RandomAttrs(nAttrs, k, rng.Intn)
		}
		attrs = data.SortedUnique(attrs)
		out = append(out, SweepPoint{
			Label: itoa(k),
			Query: c.Build(table, attrs, where),
		})
	}
	return out
}

// SelectivitySweep builds the Figures 2 and 10(d-f) x-axis: queries of class
// c over a fixed set of k attributes while the filter selectivity varies.
func SelectivitySweep(table string, nAttrs, rows, k int, c QueryClass, sels []float64, seed int64) []SweepPoint {
	rng := rand.New(rand.NewSource(seed))
	attrs := append([]data.AttrID{0}, query.RandomAttrs(nAttrs-1, k-1, func(n int) int { return 1 + rng.Intn(n) })...)
	attrs = data.SortedUnique(attrs)
	out := make([]SweepPoint, 0, len(sels))
	for _, s := range sels {
		out = append(out, SweepPoint{
			Label: percent(s),
			Query: c.Build(table, attrs, DialPredicate(rows, s)),
		})
	}
	return out
}

// AdaptiveSequence builds the §4.1 workload: n select-project-aggregation
// queries, each over z ∈ [zMin, zMax] attributes of a wide relation. The
// sequence has the structure the paper describes — recurring attribute
// combinations ("5 out of the 20 queries refer to attributes a1, a5, a8, a9,
// a10") drawn from a rotating pool of hot templates, plus occasional fresh
// ad-hoc patterns, with the hot pool drifting over time so the workload
// evolves.
func AdaptiveSequence(table string, nAttrs, rows, n, zMin, zMax int, seed int64) []*query.Query {
	rng := rand.New(rand.NewSource(seed))
	const poolSize = 5
	newTemplate := func() []data.AttrID {
		z := zMin + rng.Intn(zMax-zMin+1)
		return query.RandomAttrs(nAttrs, z, rng.Intn)
	}
	pool := make([][]data.AttrID, poolSize)
	for i := range pool {
		pool[i] = newTemplate()
	}
	out := make([]*query.Query, n)
	for i := 0; i < n; i++ {
		// Drift: periodically replace one hot template.
		if i > 0 && i%(n/4+1) == 0 {
			pool[rng.Intn(poolSize)] = newTemplate()
		}
		var attrs []data.AttrID
		if rng.Float64() < 0.8 {
			attrs = pool[rng.Intn(poolSize)] // hot, recurring combination
		} else {
			attrs = newTemplate() // ad-hoc exploration
		}
		where := query.PredLt(attrs[0], rng.Int63n(2*data.ValueHi)-data.ValueHi)
		out[i] = query.AggExpression(table, attrs, where)
	}
	return out
}

// ShiftSequence builds the Figure 9 workload: n queries over 5–20 attribute
// expressions; the first phase1 queries draw from one 20-attribute working
// set, the remainder from a different one.
func ShiftSequence(table string, nAttrs, n, phase1 int, seed int64) []*query.Query {
	rng := rand.New(rand.NewSource(seed))
	setA := query.RandomAttrs(nAttrs, 20, rng.Intn)
	var setB []data.AttrID
	for len(setB) < 20 {
		cand := query.RandomAttrs(nAttrs, 20, rng.Intn)
		if data.IntersectCount(setA, cand) == 0 {
			setB = cand
		}
	}
	pick := func(set []data.AttrID) []data.AttrID {
		k := 5 + rng.Intn(16) // 5..20 attributes per query
		if k > len(set) {
			k = len(set)
		}
		idx := rng.Perm(len(set))[:k]
		attrs := make([]data.AttrID, k)
		for i, j := range idx {
			attrs[i] = set[j]
		}
		return data.SortedUnique(attrs)
	}
	out := make([]*query.Query, n)
	for i := 0; i < n; i++ {
		set := setA
		if i >= phase1 {
			set = setB
		}
		out[i] = query.AggExpression(table, pick(set), nil)
	}
	return out
}

// OscillatingSequence alternates between two access patterns every period
// queries — the workload class §3.2 warns adaptation must not overreact to.
func OscillatingSequence(table string, nAttrs, n, period int, seed int64) []*query.Query {
	rng := rand.New(rand.NewSource(seed))
	setA := query.RandomAttrs(nAttrs, 8, rng.Intn)
	setB := query.RandomAttrs(nAttrs, 8, rng.Intn)
	out := make([]*query.Query, n)
	for i := 0; i < n; i++ {
		set := setA
		if (i/period)%2 == 1 {
			set = setB
		}
		out[i] = query.AggExpression(table, set, nil)
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func percent(f float64) string {
	return itoa(int(f*100+0.5)) + "%"
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
