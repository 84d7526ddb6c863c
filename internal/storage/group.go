// Package storage implements H2O's physical data layouts (paper §3.1):
// row-major (NSM), column-major (DSM) and groups of columns, all represented
// uniformly as vertical partitions ("column groups") over flat []int64
// buffers with explicit strides. A pure column is a group of width 1; a pure
// row layout is a single group covering every attribute. The package also
// provides the offline reorganization primitives (stitch / project) that the
// execution layer fuses into query processing for online adaptation.
//
// # Segments
//
// A Relation is horizontally partitioned into an ordered list of
// fixed-capacity Segments (SegCap rows, DefaultSegmentCapacity unless
// overridden). Invariants:
//
//   - Every segment carries its own column-group set covering the schema,
//     its own narrowest-group index, per-group zone maps and a version.
//     Layouts are segment-local: hot segments may be reorganized while
//     cold ones keep their layout, so a relation can legitimately hold
//     mixed layouts across segments.
//   - Only the last segment (the tail) is mutable. Appends grow the tail's
//     groups and extend their zone maps incrementally; at SegCap rows the
//     tail seals and a fresh tail opens with the same layout. Sealed
//     segments are never copied or rescanned by appends.
//   - Interior segments always hold exactly SegCap rows; only the tail may
//     be partial (or empty, right after a rollover of an exactly-full
//     batch).
//   - Reorganization (StitchSeg + Segment.AddGroup) reads and writes one
//     segment: O(segment), never O(relation). Relation-level AddGroup
//     slices a full-length group across segments without copying.
//   - Any mutation bumps both the mutated segment's version and the
//     relation version; result caches key on the latter.
package storage

import (
	"fmt"
	"sync/atomic"

	"h2o/internal/data"
)

// LayoutKind classifies a set of column groups for reporting purposes.
type LayoutKind int

const (
	// KindColumn is a pure column-major (DSM) layout: every group has width 1.
	KindColumn LayoutKind = iota
	// KindRow is a pure row-major (NSM) layout: one group covers all attributes.
	KindRow
	// KindGroup is any hybrid vertical partitioning in between.
	KindGroup
)

// String returns the conventional name of the layout kind.
func (k LayoutKind) String() string {
	switch k {
	case KindColumn:
		return "column-major"
	case KindRow:
		return "row-major"
	case KindGroup:
		return "column-group"
	default:
		return fmt.Sprintf("LayoutKind(%d)", int(k))
	}
}

// ColumnGroup is a vertical partition of a relation: a contiguous, row-major
// block holding a subset of the attributes for every tuple (paper Figure 4c).
// Width-1 groups are plain columns; a group covering the whole schema is a
// row-major relation.
//
// Data is laid out as Rows consecutive mini-tuples of Stride words each; the
// first Width words of a mini-tuple are the attribute values in Attrs order,
// the remaining Stride-Width words are padding (used to model the slotted
// page / header overhead of a traditional NSM row store, which the paper
// measures at 13%).
type ColumnGroup struct {
	Attrs  []data.AttrID // sorted base-schema attribute ids
	Width  int           // number of attributes = len(Attrs)
	Stride int           // words per tuple in Data; Stride >= Width
	Rows   int
	Data   []data.Value // len = Rows*Stride

	pos map[data.AttrID]int // attr id -> offset within a mini-tuple

	// zm summarizes the group for block- and segment-level predicate
	// skipping. It is built when the group is materialized into a segment
	// and extended incrementally on tail-segment appends; nil means "no
	// summary" (standalone kernel-benchmark groups), which scans treat as
	// "may match".
	zm *ZoneMap

	// enc caches the group's encoded form (see encode.go). Atomic because
	// spill writes (under the engine's shared lock) and encoded scans
	// build it lazily while racing with each other; any mutation drops it
	// before touching Data.
	enc atomic.Pointer[GroupEncoding]
}

// NewGroup allocates an empty (zeroed) column group for the given attributes
// and row count with no padding. Attrs is normalized (sorted, deduplicated).
func NewGroup(attrs []data.AttrID, rows int) *ColumnGroup {
	return NewGroupPadded(attrs, rows, 0)
}

// NewGroupPadded allocates a zeroed column group with padWords extra words of
// per-tuple padding, modeling NSM page overhead.
func NewGroupPadded(attrs []data.AttrID, rows int, padWords int) *ColumnGroup {
	if padWords < 0 {
		padWords = 0
	}
	norm := data.SortedUnique(attrs)
	if len(norm) == 0 {
		panic("storage: column group must contain at least one attribute")
	}
	g := &ColumnGroup{
		Attrs:  norm,
		Width:  len(norm),
		Stride: len(norm) + padWords,
		Rows:   rows,
		pos:    make(map[data.AttrID]int, len(norm)),
	}
	g.Data = make([]data.Value, rows*g.Stride)
	for i, a := range norm {
		g.pos[a] = i
	}
	return g
}

// BuildGroup materializes a column group for attrs from the generator table.
func BuildGroup(t *data.Table, attrs []data.AttrID) *ColumnGroup {
	return BuildGroupPadded(t, attrs, 0)
}

// BuildGroupPadded materializes a column group with per-tuple padding.
func BuildGroupPadded(t *data.Table, attrs []data.AttrID, padWords int) *ColumnGroup {
	g := NewGroupPadded(attrs, t.Rows, padWords)
	for i, a := range g.Attrs {
		col := t.Cols[a]
		for r := 0; r < g.Rows; r++ {
			g.Data[r*g.Stride+i] = col[r]
		}
	}
	return g
}

// Zones returns the group's zone map, or nil when none has been built.
func (g *ColumnGroup) Zones() *ZoneMap { return g.zm }

// Bounds returns the exact minimum and maximum of attribute a over the
// group's rows, read in O(1) from its zone map's whole-group bounds. ok is
// false when the group does not store a or has no rows summarized, as on
// suffix views, which carry no zone map.
func (g *ColumnGroup) Bounds(a data.AttrID) (lo, hi data.Value, ok bool) {
	off, has := g.pos[a]
	if !has || g.zm == nil || g.zm.rows == 0 {
		return 0, 0, false
	}
	return g.zm.allMin[off], g.zm.allMax[off], true
}

// BuildZones (re)builds the group's zone map in one pass. block <= 0
// selects DefaultZoneBlock.
func (g *ColumnGroup) BuildZones(block int) { g.zm = BuildZoneMap(g, block) }

// slice returns a view of rows [lo, hi) sharing the group's backing array
// and attribute index. The view's capacity is pinned at hi, so appending to
// a tail-segment view never scribbles over the next segment's rows. When
// the span covers the whole group the group itself is returned, preserving
// pointer identity for single-segment relations.
func (g *ColumnGroup) slice(lo, hi int) *ColumnGroup {
	if lo == 0 && hi == g.Rows {
		return g
	}
	return &ColumnGroup{
		Attrs:  g.Attrs,
		Width:  g.Width,
		Stride: g.Stride,
		Rows:   hi - lo,
		Data:   g.Data[lo*g.Stride : hi*g.Stride : hi*g.Stride],
		pos:    g.pos,
	}
}

// Offset returns the position of attribute a within a mini-tuple and whether
// the group stores that attribute.
func (g *ColumnGroup) Offset(a data.AttrID) (int, bool) {
	off, ok := g.pos[a]
	return off, ok
}

// Has reports whether the group stores attribute a.
func (g *ColumnGroup) Has(a data.AttrID) bool {
	_, ok := g.pos[a]
	return ok
}

// HasAll reports whether the group stores every attribute in attrs.
func (g *ColumnGroup) HasAll(attrs []data.AttrID) bool {
	for _, a := range attrs {
		if !g.Has(a) {
			return false
		}
	}
	return true
}

// Value returns the value of base attribute a in row r. It is a convenience
// accessor for tests and the generic operator; scan kernels index Data
// directly with the stride.
func (g *ColumnGroup) Value(r int, a data.AttrID) data.Value {
	off, ok := g.pos[a]
	if !ok {
		panic(fmt.Sprintf("storage: group %v does not store attribute %d", g.Attrs, a))
	}
	return g.Data[r*g.Stride+off]
}

// Set writes the value of base attribute a in row r.
func (g *ColumnGroup) Set(r int, a data.AttrID, v data.Value) {
	off, ok := g.pos[a]
	if !ok {
		panic(fmt.Sprintf("storage: group %v does not store attribute %d", g.Attrs, a))
	}
	g.enc.Store(nil) // any cached encoding is stale the moment data changes
	g.Data[r*g.Stride+off] = v
}

// Column returns the values of attribute a as a fresh slice. Width-1 groups
// return a direct view of Data (no copy) when unpadded.
func (g *ColumnGroup) Column(a data.AttrID) []data.Value {
	off, ok := g.pos[a]
	if !ok {
		panic(fmt.Sprintf("storage: group %v does not store attribute %d", g.Attrs, a))
	}
	if g.Stride == 1 {
		return g.Data
	}
	out := make([]data.Value, g.Rows)
	for r := 0; r < g.Rows; r++ {
		out[r] = g.Data[r*g.Stride+off]
	}
	return out
}

// Bytes returns the logical footprint of the group in bytes — the size its
// data occupies when resident. A spilled group (Data dropped by segment
// eviction) reports the same value, so cost pricing and transform-volume
// estimates are residency-independent.
func (g *ColumnGroup) Bytes() int64 {
	return int64(g.Rows) * int64(g.Stride) * 8
}

// Clone returns a deep copy of the group.
func (g *ColumnGroup) Clone() *ColumnGroup {
	c := NewGroupPadded(g.Attrs, g.Rows, g.Stride-g.Width)
	copy(c.Data, g.Data)
	return c
}

// String describes the group for logs and the shell.
func (g *ColumnGroup) String() string {
	return fmt.Sprintf("group%v rows=%d stride=%d", g.Attrs, g.Rows, g.Stride)
}

// RowOverheadWords returns the per-tuple padding used to emulate the slotted
// page and tuple header overhead of a traditional row store; the paper
// reports a 13% larger memory footprint for DBMS-R on the 250-attribute
// relation.
func RowOverheadWords(width int) int {
	pad := (width*13 + 99) / 100 // ceil(0.13 * width)
	if pad < 1 {
		pad = 1
	}
	return pad
}
