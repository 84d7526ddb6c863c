package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"h2o"
)

// The oracle is a deliberately naive row-at-a-time evaluator over the
// benchmark's shadow copy of the data: the generated columns plus every row
// the run inserted. It covers exactly the statement templates gen.go emits.
// The serving layer's delta and grouped repairs are incremental view
// maintenance; comparing them with this from-scratch recomputation at
// quiescence is the correctness criterion that work is held to.

type aggOp uint8

const (
	aggNone aggOp = iota
	aggSum
	aggCount
	aggMin
	aggMax
	aggAvg
)

var aggNames = [...]string{"", "sum", "count", "min", "max", "avg"}

// col names an attribute of the FROM table, or of the joined one.
type col struct {
	right bool
	attr  int
}

// item is one select item: the sum of cols, optionally folded by agg.
type item struct {
	agg  aggOp
	cols []col
}

// pred is "c >= v" when ge, else "c < v". A statement's where clause is the
// conjunction of its preds.
type pred struct {
	c  col
	ge bool
	v  int64
}

// stmt is one select statement: the single source of both its SQL text and
// its oracle answer.
type stmt struct {
	table             string
	join              string // joined table; "" for single-table statements
	leftKey, rightKey int    // table.a<leftKey> = join.a<rightKey>
	items             []item
	where             []pred
	group             *col // GROUP BY column; also items[0]
}

func (s *stmt) colName(c col) string {
	if c.right {
		return s.join + ".a" + strconv.Itoa(c.attr)
	}
	return "a" + strconv.Itoa(c.attr)
}

// SQL renders the statement.
func (s *stmt) SQL() string {
	var b strings.Builder
	b.WriteString("select ")
	for i, it := range s.items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.agg != aggNone {
			b.WriteString(aggNames[it.agg])
			b.WriteByte('(')
		}
		for j, c := range it.cols {
			if j > 0 {
				b.WriteString(" + ")
			}
			b.WriteString(s.colName(c))
		}
		if it.agg != aggNone {
			b.WriteByte(')')
		}
	}
	b.WriteString(" from ")
	b.WriteString(s.table)
	if s.join != "" {
		fmt.Fprintf(&b, " join %s on a%d = %s.a%d", s.join, s.leftKey, s.join, s.rightKey)
	}
	for i, p := range s.where {
		if i == 0 {
			b.WriteString(" where ")
		} else {
			b.WriteString(" and ")
		}
		b.WriteString(s.colName(p.c))
		if p.ge {
			b.WriteString(" >= ")
		} else {
			b.WriteString(" < ")
		}
		b.WriteString(strconv.FormatInt(p.v, 10))
	}
	if s.group != nil {
		b.WriteString(" group by ")
		b.WriteString(s.colName(*s.group))
	}
	return b.String()
}

// oracle holds the shadow copy: column-major per table, grown by the rows
// the run inserted.
type oracle struct {
	tables map[string]*h2o.Table
	// joinIdx maps a joined table's key column to its rows; the only joined
	// table, dim, is never inserted into, so the index is built once.
	joinIdx map[string]map[int64][]int
}

func newOracle(tables map[string]*h2o.Table) *oracle {
	return &oracle{tables: tables, joinIdx: make(map[string]map[int64][]int)}
}

// appendRows adds inserted tuples (row-major) to a table's shadow columns.
func (o *oracle) appendRows(table string, rows []int64) {
	t := o.tables[table]
	n := len(t.Cols)
	for i := 0; i+n <= len(rows); i += n {
		for a := 0; a < n; a++ {
			t.Cols[a] = append(t.Cols[a], rows[i+a])
		}
		t.Rows++
	}
}

func (o *oracle) index(table string, key int) map[int64][]int {
	name := table + "." + strconv.Itoa(key)
	if idx, ok := o.joinIdx[name]; ok {
		return idx
	}
	t := o.tables[table]
	idx := make(map[int64][]int, t.Rows)
	for r := 0; r < t.Rows; r++ {
		idx[t.Cols[key][r]] = append(idx[t.Cols[key][r]], r)
	}
	o.joinIdx[name] = idx
	return idx
}

// aggState mirrors the engine's aggregate semantics: wrapping int64 sums,
// truncating avg, and 0 for min/max/avg over no rows.
type aggState struct {
	acc, n int64
}

func (a *aggState) add(op aggOp, v int64) {
	switch op {
	case aggSum, aggAvg:
		a.acc += v
	case aggMin:
		if a.n == 0 || v < a.acc {
			a.acc = v
		}
	case aggMax:
		if a.n == 0 || v > a.acc {
			a.acc = v
		}
	}
	a.n++
}

func (a *aggState) result(op aggOp) int64 {
	switch op {
	case aggCount:
		return a.n
	case aggAvg:
		if a.n == 0 {
			return 0
		}
		return a.acc / a.n
	}
	return a.acc
}

// boundCol is a col resolved to its shadow column.
type boundCol struct {
	vals  []int64
	right bool
}

type boundPred struct {
	vals []int64
	ge   bool
	v    int64
}

func passes(preds []boundPred, row int) bool {
	for i := range preds {
		if p := &preds[i]; (p.vals[row] >= p.v) != p.ge {
			return false
		}
	}
	return true
}

// eval computes the statement's answer row-major, one row at a time.
func (o *oracle) eval(s *stmt) []int64 {
	left := o.tables[s.table]
	var right *h2o.Table
	var idx map[int64][]int
	if s.join != "" {
		right = o.tables[s.join]
		idx = o.index(s.join, s.rightKey)
	}
	bind := func(c col) boundCol {
		if c.right {
			return boundCol{right.Cols[c.attr], true}
		}
		return boundCol{left.Cols[c.attr], false}
	}
	var leftPreds, rightPreds []boundPred
	for _, p := range s.where {
		bp := boundPred{bind(p.c).vals, p.ge, p.v}
		if p.c.right {
			rightPreds = append(rightPreds, bp)
		} else {
			leftPreds = append(leftPreds, bp)
		}
	}
	items := make([][]boundCol, len(s.items))
	hasAgg := false
	for i, it := range s.items {
		for _, c := range it.cols {
			items[i] = append(items[i], bind(c))
		}
		hasAgg = hasAgg || it.agg != aggNone
	}
	value := func(cols []boundCol, l, r int) int64 {
		var v int64
		for _, c := range cols {
			if c.right {
				v += c.vals[r]
			} else {
				v += c.vals[l]
			}
		}
		return v
	}

	var out []int64                      // projections: rows in table order
	groups := make(map[int64][]aggState) // aggregates: one entry per group (key 0 when ungrouped)
	if hasAgg && s.group == nil {
		groups[0] = make([]aggState, len(s.items))
	}
	emit := func(l, r int) {
		if !hasAgg {
			for _, cols := range items {
				out = append(out, value(cols, l, r))
			}
			return
		}
		var key int64
		if s.group != nil {
			key = value(items[0], l, r)
		}
		st, ok := groups[key]
		if !ok {
			st = make([]aggState, len(s.items))
			groups[key] = st
		}
		for i, it := range s.items {
			if it.agg != aggNone {
				st[i].add(it.agg, value(items[i], l, r))
			}
		}
	}
	for l := 0; l < left.Rows; l++ {
		if !passes(leftPreds, l) {
			continue
		}
		if right == nil {
			emit(l, 0)
			continue
		}
		for _, r := range idx[left.Cols[s.leftKey][l]] {
			if passes(rightPreds, r) {
				emit(l, r)
			}
		}
	}
	if !hasAgg {
		return out
	}
	keys := make([]int64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		for i, it := range s.items {
			if it.agg == aggNone {
				out = append(out, k) // the group key column
			} else {
				out = append(out, groups[k][i].result(it.agg))
			}
		}
	}
	return out
}

// check compares each statement's answer through the serving path with the
// oracle's, bit for bit, and returns the mismatches (errors count as
// mismatches). It runs at quiescence: no insert is in flight.
func (o *oracle) check(ctx context.Context, db *h2o.DB, stmts []*stmt) (mismatches []string) {
	for _, s := range stmts {
		if s.join != "" {
			o.index(s.join, s.rightKey) // build outside the parallel section
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan *stmt)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				want := o.eval(s)
				res, _, err := db.QueryCtx(ctx, s.SQL())
				var why string
				switch {
				case err != nil:
					why = err.Error()
				case res.Rows*len(res.Cols) != len(want) || len(res.Cols) != len(s.items):
					why = fmt.Sprintf("got %d x %d values, want %d", res.Rows, len(res.Cols), len(want))
				default:
					for i, v := range want {
						if res.Data[i] != v {
							why = fmt.Sprintf("value %d: got %d, want %d", i, res.Data[i], v)
							break
						}
					}
				}
				if why != "" {
					mu.Lock()
					mismatches = append(mismatches, s.SQL()+": "+why)
					mu.Unlock()
				}
			}
		}()
	}
	for _, s := range stmts {
		next <- s
	}
	close(next)
	wg.Wait()
	return mismatches
}
