package storage

import (
	"fmt"

	"h2o/internal/data"
)

// StitchSeg materializes a new column group for attrs within one segment by
// reading the needed values from the segment's own groups ("blocks from R1
// and R2 are read and stitched together", paper §3.2). This is the
// *offline* reorganization primitive at segment granularity — the unit the
// engine's incremental adaptation moves; the execution layer runs the same
// Stitcher a chunk at a time, fused with predicate evaluation, for the
// online path (Fig. 13). The new group's zone map is assembled from the
// sources' maps, not rescanned.
//
// The segment's groups must collectively cover attrs; the covering
// assignment of Segment.CoveringGroups picks each attribute's source.
func StitchSeg(seg *Segment, attrs []data.AttrID) (*ColumnGroup, error) {
	st, err := NewStitcher(seg, attrs)
	if err != nil {
		return nil, err
	}
	if _, err := seg.Acquire(); err != nil {
		return nil, err
	}
	defer seg.Release()
	st.Rows(0, seg.Rows)
	return st.Finish(), nil
}

// Stitch materializes a full-relation-length group for attrs, stitching
// segment by segment. Offline tools and tests use it to build a group that
// Relation.AddGroup then slices back across the segments; the engine's
// online path reorganizes segment-locally instead.
func Stitch(rel *Relation, attrs []data.AttrID) (*ColumnGroup, error) {
	norm := data.SortedUnique(attrs)
	dst := NewGroup(norm, rel.Rows)
	base := 0
	for _, seg := range rel.Segments {
		cols, err := stitchSources(seg, norm)
		if err != nil {
			return nil, err
		}
		if _, err := seg.Acquire(); err != nil {
			return nil, err
		}
		stitchRows(dst, base, cols, 0, seg.Rows)
		seg.Release()
		base += seg.Rows
	}
	dst.BuildZones(0)
	return dst, nil
}

// Stitcher builds one segment's new group over a set of attributes: Rows
// copies a span of the segment's rows from their source groups, and Finish
// gives the group its zone map. The online reorganizing operator stitches
// one chunk at a time and evaluates the query over each chunk while it is
// in cache; StitchSeg stitches every row at once.
//
// Rows may run concurrently on disjoint row ranges — each call writes only
// its own rows of the new group — while the segment is pinned. Finish runs
// once, after every range has been stitched.
type Stitcher struct {
	dst  *ColumnGroup
	cols []stitchCol
}

// stitchCol is where one destination column of a stitch reads from: the
// source group storing the attribute, and the attribute's word offset in
// the source's mini-tuples.
type stitchCol struct {
	g   *ColumnGroup
	off int
}

// NewStitcher plans the stitch of seg's rows into a new group over attrs
// (normalized), whose rows it allocates. It does not read any data, so the
// caller may pin the segment afterwards.
func NewStitcher(seg *Segment, attrs []data.AttrID) (*Stitcher, error) {
	norm := data.SortedUnique(attrs)
	cols, err := stitchSources(seg, norm)
	if err != nil {
		return nil, err
	}
	return &Stitcher{dst: NewGroup(norm, seg.Rows), cols: cols}, nil
}

// stitchSources resolves each attribute of norm to the covering group of
// seg it is read from.
func stitchSources(seg *Segment, norm []data.AttrID) ([]stitchCol, error) {
	_, assign, err := seg.CoveringGroups(norm)
	if err != nil {
		return nil, err
	}
	cols := make([]stitchCol, len(norm))
	for i, a := range norm {
		g := assign[a]
		cols[i].g = g
		cols[i].off, _ = g.Offset(a)
	}
	return cols, nil
}

// Group returns the group being built.
func (s *Stitcher) Group() *ColumnGroup { return s.dst }

// Rows stitches the segment's rows [lo, hi) into the same rows of the new
// group.
func (s *Stitcher) Rows(lo, hi int) { stitchRows(s.dst, 0, s.cols, lo, hi) }

// Finish gives the stitched group its zone map and returns the group. Each
// attribute's per-block min/max are copied from the map of the group it was
// stitched from — they are properties of the values, not of the layout —
// and the group is rescanned only when some source has no map over exactly
// its rows at the default block (suffix views, custom blocks).
func (s *Stitcher) Finish() *ColumnGroup {
	if zm := deriveZoneMap(s.dst.Rows, s.cols); zm != nil {
		s.dst.zm = zm
	} else {
		s.dst.BuildZones(0)
	}
	return s.dst
}

// stitchRows is the one stitch copy kernel: rows [lo, hi) of the sources
// into rows [at+lo, at+hi) of dst, one destination column at a time, so
// every inner loop is a single strided copy (the access pattern of the
// paper's stitch operator).
func stitchRows(dst *ColumnGroup, at int, cols []stitchCol, lo, hi int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	ds := dst.Stride
	for di, c := range cols {
		ss := c.g.Stride
		d := dst.Data[(at+lo)*ds+di : (at+hi-1)*ds+di+1]
		src := c.g.Data[lo*ss+c.off : (hi-1)*ss+c.off+1]
		if ss == 1 {
			for r, v := range src {
				d[r*ds] = v
			}
			continue
		}
		for r, j := 0, 0; j < len(src); r, j = r+ds, j+ss {
			d[r] = src[j]
		}
	}
}

// Project materializes a narrower group containing only attrs from a single
// source group that stores all of them ("the same strategy is also applied
// when the new data layout is a subset of a group of columns", §3.2).
func Project(src *ColumnGroup, attrs []data.AttrID) (*ColumnGroup, error) {
	norm := data.SortedUnique(attrs)
	if !src.HasAll(norm) {
		return nil, fmt.Errorf("storage: source group %v does not cover %v", src.Attrs, norm)
	}
	s := &Stitcher{dst: NewGroup(norm, src.Rows), cols: make([]stitchCol, len(norm))}
	for i, a := range norm {
		s.cols[i].g = src
		s.cols[i].off, _ = src.Offset(a)
	}
	s.Rows(0, src.Rows)
	return s.Finish(), nil
}

// SegTransformBytes returns the number of bytes a reorganization of one
// segment into a group over attrs would move: bytes read from the
// segment's covering source groups plus bytes written to the destination.
// The cost model charges this volume at copy bandwidth (Eq. 1's T term) —
// per segment, so the engine can decide "adapt the 3 hot segments now,
// leave the other 97".
func SegTransformBytes(seg *Segment, attrs []data.AttrID) (int64, error) {
	norm := data.SortedUnique(attrs)
	srcs, _, err := seg.CoveringGroups(norm)
	if err != nil {
		return 0, err
	}
	var read int64
	for _, g := range srcs {
		// A strided read of k of the group's attributes still pulls whole
		// cache lines; charge the full group scan, as the paper's stitch does.
		read += g.Bytes()
	}
	written := int64(len(norm)) * int64(seg.Rows) * 8
	return read + written, nil
}

// TransformBytes sums SegTransformBytes over every segment that does not
// already carry an exact group over attrs — the whole-relation upper bound
// the advisor prices proposals with.
func TransformBytes(rel *Relation, attrs []data.AttrID) (int64, error) {
	norm := data.SortedUnique(attrs)
	var total int64
	for _, seg := range rel.Segments {
		if _, ok := seg.ExactGroup(norm); ok {
			continue
		}
		n, err := SegTransformBytes(seg, norm)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Checksum returns an order-independent digest of the logical content of the
// relation restricted to attrs: tests use it to verify that reorganization
// never changes the data. Rows are indexed globally, so the digest is
// independent of segmentation.
func Checksum(rel *Relation, attrs []data.AttrID) (uint64, error) {
	norm := data.SortedUnique(attrs)
	var sum uint64
	base := 0
	for _, seg := range rel.Segments {
		_, assign, err := seg.CoveringGroups(norm)
		if err != nil {
			return 0, err
		}
		if _, err := seg.Acquire(); err != nil {
			return 0, err
		}
		for _, a := range norm {
			g := assign[a]
			off, _ := g.Offset(a)
			for r := 0; r < seg.Rows; r++ {
				v := uint64(g.Data[r*g.Stride+off])
				// Mix row, attribute and value so permutations are detected.
				h := v ^ (uint64(base+r) * 0x9e3779b97f4a7c15) ^ (uint64(a) * 0xc2b2ae3d27d4eb4f)
				h ^= h >> 33
				h *= 0xff51afd7ed558ccd
				sum += h
			}
		}
		seg.Release()
		base += seg.Rows
	}
	return sum, nil
}

// GroupChecksum digests a single group's logical content.
func GroupChecksum(g *ColumnGroup) uint64 {
	var sum uint64
	for _, a := range g.Attrs {
		off, _ := g.Offset(a)
		for r := 0; r < g.Rows; r++ {
			v := uint64(g.Data[r*g.Stride+off])
			h := v ^ (uint64(r) * 0x9e3779b97f4a7c15) ^ (uint64(a) * 0xc2b2ae3d27d4eb4f)
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			sum += h
		}
	}
	return sum
}
