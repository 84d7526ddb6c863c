package storage

import (
	"fmt"

	"h2o/internal/data"
	"h2o/internal/expr"
)

// Lightweight per-column encodings for sealed segments. All values are
// int64 with heavy positional locality (append-ordered time series), so
// three classic codecs cover the interesting cases:
//
//   - EncFOR: frame-of-reference — store v - min bit-packed at the width
//     of the block's value range.
//   - EncDelta: delta + FOR — store successive differences (minus the
//     minimum difference) bit-packed; near-free for monotonic columns.
//   - EncRLE: run-length — (value, runLength) word pairs; wins on
//     low-cardinality or constant stretches.
//   - EncRaw: the identity fallback when nothing saves space.
//
// A cheap one-pass stats scan per 4096-row block picks whichever codec
// yields the fewest payload words. Every block also carries exact
// min/max/sum/rows, so scans can answer many predicates and aggregate
// folds directly from the header without touching the payload — the
// block-level analogue of zone maps, but exact and always present.
//
// All arithmetic is wrapping (two's complement via uint64), so encode →
// decode is the identity on arbitrary int64 inputs, including ranges
// that overflow signed subtraction. FuzzSegmentEncoding leans on this.

// EncKind identifies a block codec.
type EncKind uint8

const (
	// EncRaw stores each value as one word.
	EncRaw EncKind = iota
	// EncFOR stores bit-packed offsets from the block minimum.
	EncFOR
	// EncDelta stores the first value plus bit-packed deltas.
	EncDelta
	// EncRLE stores (value, runLength) pairs.
	EncRLE
)

// String names the codec for stats and debugging.
func (k EncKind) String() string {
	switch k {
	case EncRaw:
		return "raw"
	case EncFOR:
		return "for"
	case EncDelta:
		return "delta"
	case EncRLE:
		return "rle"
	default:
		return fmt.Sprintf("EncKind(%d)", int(k))
	}
}

// EncBlockRows is the fixed number of rows per encoded block; only a
// column's last block may be shorter. The value divides the segment
// capacity (64K) and is a multiple of the zone-map block, so encoded
// block boundaries align with zone boundaries.
const EncBlockRows = 4096

// EncBlock is one encoded run of up to EncBlockRows values of a single
// column, with exact summary statistics for block skipping and
// decode-free aggregate folds.
type EncBlock struct {
	Kind EncKind
	Rows int
	Bits uint8 // packed bits per value (EncFOR / EncDelta)
	Runs int   // number of runs (EncRLE)

	Min data.Value
	Max data.Value
	Sum data.Value // wrapping sum of the block's values

	Base  data.Value // EncFOR: block min; EncDelta: first value
	DBase data.Value // EncDelta: minimum delta

	Words []uint64 // codec payload
}

// EncColumn is one column of a group encoded as fixed-size blocks.
type EncColumn struct {
	Rows   int
	Blocks []EncBlock
}

// BlockStart returns the row index where block bi begins. Blocks are
// fixed-size, so this is a multiplication, not a prefix sum.
func (c *EncColumn) BlockStart(bi int) int { return bi * EncBlockRows }

// GroupEncoding is the encoded form of a ColumnGroup: one EncColumn per
// attribute, in g.Attrs order. Padding words are not stored; decoding
// reconstructs them as zero, matching NewGroupPadded's invariant.
type GroupEncoding struct {
	Cols []*EncColumn
	// Mapped marks payload words that alias an mmap'd spill file. Mapped
	// encodings are backed by the page cache, not the Go heap, so the
	// tier budget counts them as (approximately) free.
	Mapped bool
}

// Bytes returns the payload footprint of the encoding in bytes.
func (e *GroupEncoding) Bytes() int64 {
	var n int64
	for _, c := range e.Cols {
		for i := range c.Blocks {
			n += int64(len(c.Blocks[i].Words)) * 8
		}
	}
	return n
}

// HeapBytes returns the bytes the encoding pins on the Go heap: zero for
// mmap-backed encodings, Bytes() otherwise.
func (e *GroupEncoding) HeapBytes() int64 {
	if e.Mapped {
		return 0
	}
	return e.Bytes()
}

// bitsFor returns the number of bits needed to represent r.
func bitsFor(r uint64) uint8 {
	b := uint8(0)
	for r != 0 {
		b++
		r >>= 1
	}
	return b
}

// packWords returns the number of 64-bit words holding n values of b bits.
func packWords(n int, b uint8) int {
	return (n*int(b) + 63) / 64
}

// packBits writes v (masked to bits) at value index idx in dst, LSB-first
// across word boundaries. dst must be zeroed.
func packBits(dst []uint64, idx int, bits uint8, v uint64) {
	pos := idx * int(bits)
	w, off := pos>>6, uint(pos&63)
	dst[w] |= v << off
	if off+uint(bits) > 64 {
		dst[w+1] |= v >> (64 - off)
	}
}

// unpackBits reads the value at index idx packed by packBits.
func unpackBits(src []uint64, idx int, bits uint8, mask uint64) uint64 {
	pos := idx * int(bits)
	w, off := pos>>6, uint(pos&63)
	v := src[w] >> off
	if off+uint(bits) > 64 {
		v |= src[w+1] << (64 - off)
	}
	return v & mask
}

func maskFor(bits uint8) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << bits) - 1
}

// encodeBlock encodes vals (len <= EncBlockRows, > 0) read at the given
// stride, choosing the cheapest codec from a single stats pass.
func encodeBlock(vals []data.Value, stride int, rows int) EncBlock {
	first := vals[0]
	mn, mx, sum := first, first, data.Value(0)
	runs := 1
	var dmin, dmax int64
	prev := first
	for r := 0; r < rows; r++ {
		v := vals[r*stride]
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		sum += v
		if r > 0 {
			if v != prev {
				runs++
			}
			d := int64(uint64(v) - uint64(prev))
			if r == 1 || d < dmin {
				dmin = d
			}
			if r == 1 || d > dmax {
				dmax = d
			}
			prev = v
		}
	}
	b := EncBlock{Rows: rows, Min: mn, Max: mx, Sum: sum}

	forBits := bitsFor(uint64(mx) - uint64(mn))
	deltaBits := uint8(0)
	if rows > 1 {
		deltaBits = bitsFor(uint64(dmax) - uint64(dmin))
	}
	rawCost := rows
	forCost := packWords(rows, forBits)
	deltaCost := packWords(rows-1, deltaBits)
	rleCost := 2 * runs

	best, cost := EncRaw, rawCost
	if forCost < cost {
		best, cost = EncFOR, forCost
	}
	if deltaCost < cost {
		best, cost = EncDelta, deltaCost
	}
	if rleCost < cost {
		best, cost = EncRLE, rleCost
	}

	switch best {
	case EncRaw:
		b.Kind = EncRaw
		b.Words = make([]uint64, rows)
		for r := 0; r < rows; r++ {
			b.Words[r] = uint64(vals[r*stride])
		}
	case EncFOR:
		b.Kind, b.Bits, b.Base = EncFOR, forBits, mn
		b.Words = make([]uint64, forCost)
		for r := 0; forBits > 0 && r < rows; r++ {
			packBits(b.Words, r, forBits, uint64(vals[r*stride])-uint64(mn))
		}
	case EncDelta:
		b.Kind, b.Bits, b.Base, b.DBase = EncDelta, deltaBits, first, data.Value(dmin)
		b.Words = make([]uint64, deltaCost)
		prev = first
		for r := 1; deltaBits > 0 && r < rows; r++ {
			v := vals[r*stride]
			d := uint64(v) - uint64(prev)
			packBits(b.Words, r-1, deltaBits, d-uint64(dmin))
			prev = v
		}
	case EncRLE:
		b.Kind, b.Runs = EncRLE, runs
		b.Words = make([]uint64, 0, rleCost)
		runVal, runLen := first, uint64(1)
		for r := 1; r < rows; r++ {
			v := vals[r*stride]
			if v == runVal {
				runLen++
				continue
			}
			b.Words = append(b.Words, uint64(runVal), runLen)
			runVal, runLen = v, 1
		}
		b.Words = append(b.Words, uint64(runVal), runLen)
	}
	return b
}

// Decode materializes the block's values into dst, which must have room
// for b.Rows values; it returns dst[:b.Rows].
func (b *EncBlock) Decode(dst []data.Value) []data.Value {
	dst = dst[:b.Rows]
	switch b.Kind {
	case EncRaw:
		for r := range dst {
			dst[r] = data.Value(b.Words[r])
		}
	case EncFOR:
		base, bits, mask := uint64(b.Base), b.Bits, maskFor(b.Bits)
		if bits == 0 {
			for r := range dst {
				dst[r] = b.Base
			}
			break
		}
		for r := range dst {
			dst[r] = data.Value(base + unpackBits(b.Words, r, bits, mask))
		}
	case EncDelta:
		bits, mask, dbase := b.Bits, maskFor(b.Bits), uint64(b.DBase)
		v := uint64(b.Base)
		dst[0] = b.Base
		if bits == 0 {
			for r := 1; r < b.Rows; r++ {
				v += dbase
				dst[r] = data.Value(v)
			}
			break
		}
		for r := 1; r < b.Rows; r++ {
			v += dbase + unpackBits(b.Words, r-1, bits, mask)
			dst[r] = data.Value(v)
		}
	case EncRLE:
		r := 0
		for i := 0; i < len(b.Words); i += 2 {
			v, n := data.Value(b.Words[i]), int(b.Words[i+1])
			for j := 0; j < n; j++ {
				dst[r] = v
				r++
			}
		}
	default:
		panic(fmt.Sprintf("storage: decode of unknown codec %d", b.Kind))
	}
	return dst
}

// MatchKind classifies a block against a predicate using only its exact
// min/max header: the whole block fails, the whole block matches, or the
// payload must be consulted.
type MatchKind uint8

const (
	// MatchNone means no row of the block can satisfy the predicate.
	MatchNone MatchKind = iota
	// MatchSome means the payload must be evaluated row-wise.
	MatchSome
	// MatchAll means every row of the block satisfies the predicate.
	MatchAll
)

// Match classifies the block against "value op v".
func (b *EncBlock) Match(op expr.CmpOp, v data.Value) MatchKind {
	mn, mx := b.Min, b.Max
	all, none := false, false
	switch op {
	case expr.Lt:
		all, none = mx < v, mn >= v
	case expr.Le:
		all, none = mx <= v, mn > v
	case expr.Gt:
		all, none = mn > v, mx <= v
	case expr.Ge:
		all, none = mn >= v, mx < v
	case expr.Eq:
		all, none = mn == v && mx == v, v < mn || v > mx
	case expr.Ne:
		all, none = v < mn || v > mx, mn == v && mx == v
	default:
		return MatchSome
	}
	switch {
	case none:
		return MatchNone
	case all:
		return MatchAll
	default:
		return MatchSome
	}
}

func cmpVal(v data.Value, op expr.CmpOp, c data.Value) bool {
	switch op {
	case expr.Lt:
		return v < c
	case expr.Le:
		return v <= c
	case expr.Gt:
		return v > c
	case expr.Ge:
		return v >= c
	case expr.Eq:
		return v == c
	case expr.Ne:
		return v != c
	default:
		return false
	}
}

// AppendMatches appends the block-relative indices of rows satisfying
// "value op v" to sel, evaluating the predicate over the encoded form:
// RLE compares once per run, FOR/Delta compare unpacked words without
// materializing a value slice.
func (b *EncBlock) AppendMatches(op expr.CmpOp, v data.Value, sel []int32) []int32 {
	switch b.Kind {
	case EncRaw:
		for r := 0; r < b.Rows; r++ {
			if cmpVal(data.Value(b.Words[r]), op, v) {
				sel = append(sel, int32(r))
			}
		}
	case EncFOR:
		base, bits, mask := uint64(b.Base), b.Bits, maskFor(b.Bits)
		if bits == 0 {
			if cmpVal(b.Base, op, v) {
				for r := 0; r < b.Rows; r++ {
					sel = append(sel, int32(r))
				}
			}
			break
		}
		for r := 0; r < b.Rows; r++ {
			if cmpVal(data.Value(base+unpackBits(b.Words, r, bits, mask)), op, v) {
				sel = append(sel, int32(r))
			}
		}
	case EncDelta:
		bits, mask, dbase := b.Bits, maskFor(b.Bits), uint64(b.DBase)
		cur := uint64(b.Base)
		if cmpVal(b.Base, op, v) {
			sel = append(sel, 0)
		}
		for r := 1; r < b.Rows; r++ {
			if bits == 0 {
				cur += dbase
			} else {
				cur += dbase + unpackBits(b.Words, r-1, bits, mask)
			}
			if cmpVal(data.Value(cur), op, v) {
				sel = append(sel, int32(r))
			}
		}
	case EncRLE:
		r := int32(0)
		for i := 0; i < len(b.Words); i += 2 {
			val, n := data.Value(b.Words[i]), int32(b.Words[i+1])
			if cmpVal(val, op, v) {
				for j := int32(0); j < n; j++ {
					sel = append(sel, r+j)
				}
			}
			r += n
		}
	}
	return sel
}

// encodeColumn encodes one attribute (at word offset off) of a group.
func encodeColumn(g *ColumnGroup, off int) *EncColumn {
	c := &EncColumn{Rows: g.Rows}
	for lo := 0; lo < g.Rows; lo += EncBlockRows {
		hi := lo + EncBlockRows
		if hi > g.Rows {
			hi = g.Rows
		}
		c.Blocks = append(c.Blocks, encodeBlock(g.Data[lo*g.Stride+off:], g.Stride, hi-lo))
	}
	return c
}

// EncodeGroup builds the encoded form of a resident group. It panics when
// the group's data has been dropped.
func EncodeGroup(g *ColumnGroup) *GroupEncoding {
	if g.Rows > 0 && g.Data == nil {
		panic("storage: EncodeGroup on a group with no resident data")
	}
	e := &GroupEncoding{Cols: make([]*EncColumn, g.Width)}
	for i := range g.Attrs {
		e.Cols[i] = encodeColumn(g, i)
	}
	return e
}

// DecodeInto materializes the encoding into g.Data (allocating it),
// reconstructing padding words as zero. The group's metadata (Rows,
// Stride, Attrs) must describe the encoded data.
func (e *GroupEncoding) DecodeInto(g *ColumnGroup) {
	buf := make([]data.Value, g.Rows*g.Stride)
	scratch := make([]data.Value, EncBlockRows)
	for i, c := range e.Cols {
		if g.Stride == 1 {
			// Pure column: decode straight into the backing array.
			for bi := range c.Blocks {
				c.Blocks[bi].Decode(buf[c.BlockStart(bi) : c.BlockStart(bi)+c.Blocks[bi].Rows])
			}
			continue
		}
		for bi := range c.Blocks {
			vals := c.Blocks[bi].Decode(scratch)
			base := c.BlockStart(bi)
			for r, v := range vals {
				buf[(base+r)*g.Stride+i] = v
			}
		}
	}
	g.Data = buf
}

// Encoding returns the group's cached encoded form, building and caching
// it from resident data on first use. It returns nil when the group has
// neither a cached encoding nor resident data. The cache is lazily
// shared: spill writes and concurrent encoded scans may race to build
// it, in which case one winner is kept (building is idempotent — sealed
// data never changes under a build).
func (g *ColumnGroup) Encoding() *GroupEncoding {
	if e := g.enc.Load(); e != nil {
		return e
	}
	if g.Data == nil {
		return nil
	}
	e := EncodeGroup(g)
	if !g.enc.CompareAndSwap(nil, e) {
		return g.enc.Load()
	}
	return e
}

// CachedEncoding returns the cached encoding without building one.
func (g *ColumnGroup) CachedEncoding() *GroupEncoding { return g.enc.Load() }

// SetEncoding installs an externally built encoding (e.g. one aliasing an
// mmap'd spill file).
func (g *ColumnGroup) SetEncoding(e *GroupEncoding) { g.enc.Store(e) }
