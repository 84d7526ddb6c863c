package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"h2o"
)

// Everything the program under test receives — tables and SQL text — is
// generated here from -seed; the same seed yields byte-identical inputs.

// rng is splitmix64: fast enough to fill 40M cells inside set-up, and its
// stream is fixed by this file rather than by a library version.
type rng struct{ s uint64 }

func newRNG(seed int64, salt ...uint64) rng {
	r := rng{s: uint64(seed)}
	for _, x := range salt {
		r.s = r.next() ^ x*0x9e3779b97f4a7c15
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int             { return int(r.next() % uint64(n)) }
func (r *rng) float() float64             { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) uniform() int64             { return int64(r.next()%2_000_000_000) - 1_000_000_000 }
func (r *rng) between(lo, hi int64) int64 { return lo + int64(r.next()%uint64(hi-lo)) }

const (
	valueLo   = -1_000_000_000
	valueSpan = 2_000_000_000
)

// genTable fills one of the three benchmark tables. Columns are seeded
// independently so they can be filled in parallel.
func genTable(name string, seed int64, scale float64) *h2o.Table {
	var attrs, rows int
	switch name {
	case "wide":
		attrs, rows = wideAttrs, scaled(wideRows, scale)
	case "events":
		attrs, rows = eventsAttrs, scaled(eventsRows, scale)
	case "dim":
		attrs, rows = dimAttrs, dimRows
	default:
		panic("bench: unknown table " + name)
	}
	cols := make([][]int64, attrs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0)) // one fill per CPU
	for a := range cols {
		wg.Add(1)
		sem <- struct{}{}
		go func(a int) {
			defer func() { <-sem; wg.Done() }()
			col := make([]int64, rows)
			r := newRNG(seed, uint64(len(name)), uint64(name[0]), uint64(a))
			switch {
			case name == "events" && a == 0:
				for i := range col {
					col[i] = int64(i) // append-ordered timestamp
				}
			case name == "events" && a == 1:
				for i := range col {
					col[i] = int64(r.intn(eventsA1Card))
				}
			case name == "events" && a == 2:
				for i := range col {
					col[i] = int64(r.intn(eventsA2Card))
				}
			case name == "dim" && a == 0:
				for i := range col {
					col[i] = int64(i)
				}
				for i := rows - 1; i > 0; i-- { // unique key, shuffled
					j := r.intn(i + 1)
					col[i], col[j] = col[j], col[i]
				}
			case name == "dim" && a == 1:
				for i := range col {
					col[i] = int64(r.intn(dimA1Card))
				}
			default:
				for i := range col {
					col[i] = r.uniform()
				}
			}
			cols[a] = col
		}(a)
	}
	wg.Wait()
	return &h2o.Table{Schema: h2o.SyntheticSchema(name, attrs), Rows: rows, Cols: cols}
}

func scaled(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 1024 {
		s = 1024
	}
	return s
}

// segCapFor keeps the segment count of a scaled-down table the same as at
// full scale, so pruning, repair and spill behave alike in smoke runs.
func segCapFor(scale float64) int {
	if scale >= 1 {
		return defaultSegCap
	}
	c := int(defaultSegCap * scale)
	if c < 256 {
		c = 256
	}
	return c
}

// pooled is one pre-rendered pool statement.
type pooled struct {
	sql string
	st  *stmt
}

// op is one generated statement. rows holds an insert's tuples row-major,
// for the shadow copy the oracle evaluates against.
type op struct {
	kind opKind
	sql  string
	st   *stmt
	rows []int64
}

// streamCtx is what the clients of one run share: the pools (read-only) and
// the timestamp counter that keeps events.a0 append-ordered across clients.
type streamCtx struct {
	w      *workloadSpec
	seed   int64
	segCap int64
	rows0  int64 // main-table rows at load
	ts     atomic.Int64
	pool   []pooled
	joins  []pooled
	zipf   []float64 // CDF over pool ranks
	cum    []float64 // CDF over the mix
}

func newStreamCtx(w *workloadSpec, seed int64, scale float64, mainRows int) *streamCtx {
	c := &streamCtx{w: w, seed: seed, segCap: int64(segCapFor(scale)), rows0: int64(mainRows)}
	c.ts.Store(c.rows0)
	total := 0.0
	for _, s := range w.mix {
		total += s.pct
		c.cum = append(c.cum, total)
	}
	r := newRNG(seed, 0x9001, uint64(len(w.name)))
	for i := 0; i < w.pool; i++ {
		tail := w.poolTailEvery == 0 || (i/2)%w.poolTailEvery == 1
		st := c.eventsAgg(i, i%2 == 1, c.window(&r, tail, 0.5, 1.5))
		c.pool = append(c.pool, pooled{st.SQL(), st})
	}
	for i := 0; i < w.joinPool; i++ {
		st := c.eventsJoin(&r, i, c.window(&r, w.joinTail, 0.5, 1.5))
		c.joins = append(c.joins, pooled{st.SQL(), st})
	}
	if w.zipf {
		sum := 0.0
		for k := 1; k <= w.pool; k++ {
			sum += math.Pow(float64(k), -1.1)
			c.zipf = append(c.zipf, sum)
		}
		for i := range c.zipf {
			c.zipf[i] /= sum
		}
	}
	return c
}

// pooled lists every pool statement, aggregates then joins.
func (c *streamCtx) pooled() []pooled { return append(c.pool[:len(c.pool):len(c.pool)], c.joins...) }

// sealedRows is the row count below which every row lived in a sealed
// segment at load time; windows kept under it never see an append.
func (c *streamCtx) sealedRows() int64 { return c.rows0 / c.segCap * c.segCap }

// window draws a predicate on events.a0. A tail window is open-ended and
// starts minSeg..maxSeg segments behind the current end of the table; a
// historical one is a closed range of that width inside sealed segments.
func (c *streamCtx) window(r *rng, tail bool, minSeg, maxSeg float64) []pred {
	width := int64((minSeg + (maxSeg-minSeg)*r.float()) * float64(c.segCap))
	if tail {
		lo := c.ts.Load() - width
		if lo < 0 {
			lo = 0
		}
		return []pred{{c: col{attr: 0}, ge: true, v: lo}}
	}
	sealed := c.sealedRows()
	if width >= sealed {
		width = sealed - 1
	}
	return a0Range(r.between(0, sealed-width), width)
}

// a0Range is the closed window lo <= a0 < lo+width.
func a0Range(lo, width int64) []pred {
	a0 := col{attr: 0}
	return []pred{{c: a0, ge: true, v: lo}, {c: a0, v: lo + width}}
}

// eventsAgg builds a scalar or GROUP BY a1 aggregate over events. variant
// rotates the aggregated attributes so pool statements differ in more than
// their constants.
func (c *streamCtx) eventsAgg(variant int, grouped bool, where []pred) *stmt {
	x, y := 3+variant%5, 3+(variant/5+1)%5
	st := &stmt{table: "events", where: where}
	if grouped {
		g := col{attr: 1}
		st.group = &g
		st.items = append(st.items, item{cols: []col{g}})
	}
	st.items = append(st.items,
		item{agg: aggSum, cols: []col{{attr: x}}},
		item{agg: aggCount, cols: []col{{attr: 0}}})
	if !grouped {
		st.items = append(st.items, item{agg: aggMax, cols: []col{{attr: y}}})
	}
	return st
}

// eventsJoin builds events ⋈ dim on events.a2 = dim.a0 with a filter on the
// dimension; every other variant groups by the dimension attribute.
func (c *streamCtx) eventsJoin(r *rng, variant int, where []pred) *stmt {
	st := &stmt{table: "events", join: "dim", leftKey: 2, rightKey: 0}
	st.where = append(where, pred{c: col{right: true, attr: 1}, v: int64(4 + r.intn(dimA1Card-4))})
	if variant%2 == 1 {
		g := col{right: true, attr: 1}
		st.group = &g
		st.items = append(st.items, item{cols: []col{g}})
	}
	st.items = append(st.items,
		item{agg: aggCount, cols: []col{{attr: 0}}},
		item{agg: aggSum, cols: []col{{right: true, attr: 2}}})
	return st
}

// template is one hot access pattern of adapt_seq: an attribute set and the
// attribute its predicate filters on.
type template struct {
	attrs []int
	where int
}

// templateSizes are the attribute counts of the five hot slots. They span
// the 5-20 range evenly and are the same for every seed: letting the seed
// also pick the sizes makes scan volume, and with it every metric, swing
// from seed to seed.
var templateSizes = [5]int{6, 9, 12, 16, 20}

func (r *rng) template(k int) template {
	seen := make(map[int]bool, k)
	t := template{where: r.intn(wideAttrs)}
	for len(t.attrs) < k {
		if a := r.intn(wideAttrs); !seen[a] {
			seen[a] = true
			t.attrs = append(t.attrs, a)
		}
	}
	sort.Ints(t.attrs)
	return t
}

// pick returns the first index whose cumulative weight exceeds u.
func pick(cdf []float64, u float64) int {
	i := sort.Search(len(cdf), func(i int) bool { return cdf[i] > u })
	if i == len(cdf) {
		i--
	}
	return i
}

// opStream is one client's deterministic op sequence. shape decides which
// template comes next and how it looks; r fills in the values.
//
// On adapt_seq shape does not depend on the seed. An adaptive store is path
// dependent — the groups an early query made it build serve, or fail to
// serve, every later one — so two access-pattern sequences drawn from the
// same distribution differ by a quarter in median latency over a whole run.
// The seed instead regenerates the data, relabels the attributes through
// perm and redraws every constant: inputs differ from seed to seed, the
// adaptation problem posed does not.
type opStream struct {
	c     *streamCtx
	shape rng
	r     rng
	n     int
	hot   [5]template
	perm  []int
	buf   []byte
}

func newOpStream(c *streamCtx, client int) *opStream {
	s := &opStream{c: c, r: newRNG(c.seed, 0xc11e, uint64(client))}
	s.shape = newRNG(c.seed, 0x5a9e, uint64(client))
	if c.w.phaseOps > 0 {
		s.shape = newRNG(0, 0x5a9e, uint64(client))
		s.perm = make([]int, wideAttrs)
		for i := range s.perm {
			s.perm[i] = i
		}
		for i := len(s.perm) - 1; i > 0; i-- {
			j := s.r.intn(i + 1)
			s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		}
		for i := range s.hot {
			s.hot[i] = s.shape.template(templateSizes[i])
		}
	}
	return s
}

func (s *opStream) next() op {
	c := s.c
	if c.w.phaseOps > 0 && s.n > 0 && s.n%c.w.phaseOps == 0 {
		// Drift: the two oldest hot templates give way to new ones.
		phase := s.n / c.w.phaseOps
		for _, i := range [2]int{(2 * phase) % 5, (2*phase + 1) % 5} {
			s.hot[i] = s.shape.template(templateSizes[i])
		}
	}
	s.n++
	kind := c.w.mix[pick(c.cum, s.shape.float()*c.cum[len(c.cum)-1])].kind
	switch kind {
	case opSumExpr, opMultiAgg, opProjection:
		return s.wideOp(kind)
	case opRepeat:
		i := s.r.intn(len(c.pool))
		if c.zipf != nil {
			i = pick(c.zipf, s.r.float())
		}
		return op{kind: kind, sql: c.pool[i].sql, st: c.pool[i].st}
	case opJoin:
		j := c.joins[s.r.intn(len(c.joins))]
		return op{kind: kind, sql: j.sql, st: j.st}
	case opInsert:
		return s.insert(c.w.tables[0])
	case opFreshScalar, opFreshGrouped:
		// A 5% window somewhere in the table: two to three segments.
		width := c.rows0 / 20
		st := c.eventsAgg(s.r.intn(25), kind == opFreshGrouped, a0Range(s.r.between(0, c.rows0-width), width))
		return op{kind: kind, sql: st.SQL(), st: st}
	case opRecent:
		st := c.eventsAgg(s.r.intn(25), false, c.window(&s.r, true, 0.1, 1.0))
		return op{kind: kind, sql: st.SQL(), st: st}
	case opWideWindow:
		width := int64((0.25 + 0.75*s.r.float()) * float64(c.rows0))
		lo := int64(0)
		if width < c.rows0 {
			lo = s.r.between(0, c.rows0-width)
		}
		st := c.eventsAgg(s.r.intn(25), false, a0Range(lo, width))
		return op{kind: kind, sql: st.SQL(), st: st}
	case opOldProjection:
		x := 3 + s.r.intn(5)
		st := &stmt{table: "events",
			items: []item{{cols: []col{{attr: x}}}, {cols: []col{{attr: 3 + (x-2)%5}}}},
			where: a0Range(s.r.between(0, c.rows0/2), 128)}
		return op{kind: kind, sql: st.SQL(), st: st}
	}
	panic("bench: op kind without a generator: " + opKindNames[kind])
}

// wideOp draws one adapt_seq statement: its attribute set comes from the hot
// pool four times out of five, its constant is always fresh.
func (s *opStream) wideOp(kind opKind) op {
	t := s.hot[s.shape.intn(len(s.hot))]
	if s.shape.float() >= 0.8 {
		t = s.shape.template(templateSizes[s.shape.intn(len(templateSizes))])
	}
	sel := 0.05 + 0.20*s.shape.float()
	if kind == opProjection {
		sel = 0.0005 + 0.0015*s.shape.float()
	}
	sel *= 0.98 + 0.04*s.r.float() // the shape fixes the selectivity, the seed the constant
	st := &stmt{table: "wide",
		where: []pred{{c: col{attr: s.perm[t.where]}, v: valueLo + int64(sel*valueSpan)}}}
	switch kind {
	case opSumExpr:
		it := item{agg: aggSum}
		for _, a := range t.attrs {
			it.cols = append(it.cols, col{attr: s.perm[a]})
		}
		st.items = []item{it}
	case opMultiAgg:
		for i, a := range t.attrs {
			st.items = append(st.items, item{agg: aggSum + aggOp(i%5), cols: []col{{attr: s.perm[a]}}})
		}
	case opProjection:
		for _, a := range t.attrs {
			st.items = append(st.items, item{cols: []col{{attr: s.perm[a]}}})
		}
	}
	return op{kind: kind, sql: st.SQL(), st: st}
}

// insert renders one 64-row insert. Timestamps come from the shared counter
// so a0 stays append-ordered however the clients interleave.
func (s *opStream) insert(table string) op {
	attrs := eventsAttrs
	if table == "wide" {
		attrs = wideAttrs
	}
	ts := s.c.ts.Add(insertRows) - insertRows
	rows := make([]int64, 0, insertRows*attrs)
	b := append(s.buf[:0], "insert into "...)
	b = append(b, table...)
	b = append(b, " values "...)
	for i := 0; i < insertRows; i++ {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, '(')
		for a := 0; a < attrs; a++ {
			v := s.r.uniform()
			if table == "events" {
				switch a {
				case 0:
					v = ts + int64(i)
				case 1:
					v = int64(s.r.intn(eventsA1Card))
				case 2:
					v = int64(s.r.intn(eventsA2Card))
				}
			}
			if a > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendInt(b, v, 10)
			rows = append(rows, v)
		}
		b = append(b, ')')
	}
	s.buf = b
	return op{kind: opInsert, sql: string(b), rows: rows}
}
