package storage

import (
	"fmt"

	"h2o/internal/data"
)

// Append adds one tuple (a full-width value slice in schema attribute
// order) to the relation: AppendBatch of one tuple.
//
// H2O is a read-optimized analytical store — the paper evaluates scans, not
// updates — so appends are the only write: densely packed, no free space,
// no in-place updates (§3.1: "attributes are densely-packed and no
// additional space is left for updates").
func (r *Relation) Append(tuple []data.Value) error {
	return r.AppendBatch([][]data.Value{tuple})
}

// AppendBatch adds many tuples; it validates all widths before mutating
// anything, so a bad batch leaves the relation untouched. Only the mutable
// tail segment is touched: each chunk that fits in it is appended column
// group by column group and the groups' zone maps extend incrementally.
// When the tail reaches SegCap rows it seals and a fresh tail opens with
// the same layout — sealed segments are never copied or rescanned, so
// append cost is O(batch), not O(relation). Batches may roll over any
// number of segment boundaries.
func (r *Relation) AppendBatch(tuples [][]data.Value) error {
	if len(tuples) == 0 {
		return nil // no mutation: keep the version (and caches keyed on it) intact
	}
	for i, tup := range tuples {
		if len(tup) != r.Schema.NumAttrs() {
			return fmt.Errorf("storage: tuple %d has %d values, schema %q has %d attributes",
				i, len(tup), r.Schema.Name, r.Schema.NumAttrs())
		}
	}
	for len(tuples) > 0 {
		tail := r.tailWithRoom()
		n := min(len(tuples), r.SegCap-tail.Rows)
		tail.appendRows(tuples[:n])
		tail.bumpVersion()
		r.Rows += n
		tuples = tuples[n:]
	}
	r.bumpVersion()
	return nil
}

// tailWithRoom returns the tail segment, sealing it and opening a fresh
// one (same layout, empty groups) when it is full.
func (r *Relation) tailWithRoom() *Segment {
	tail := r.Tail()
	if tail.Rows < r.SegCap {
		return tail
	}
	if r.EncodeOnSeal {
		// The tail is sealing: build its encoded form now, while the data
		// is cache-hot, so later demotion and spill writes are free.
		for _, g := range tail.Groups {
			g.Encoding()
		}
	}
	tail.seal()
	fresh := make([]*ColumnGroup, len(tail.Groups))
	for i, g := range tail.Groups {
		ng := NewGroupPadded(g.Attrs, 0, g.Stride-g.Width)
		ng.zm = NewZoneMap(ng.Width, 0)
		fresh[i] = ng
	}
	next := newSegment(r, 0, fresh)
	r.Segments = append(r.Segments, next)
	return next
}

// appendRows appends tuples, which were validated and fit in the tail, one
// column group at a time: each group's Data is extended once, then every
// attribute is copied down the batch and the zone map folds the new rows
// block by block.
func (s *Segment) appendRows(tuples [][]data.Value) {
	n := len(tuples)
	for _, g := range s.Groups {
		g.enc.Store(nil) // tails are never encoded; drop any stale cache
		base := len(g.Data)
		g.grow(n*g.Stride, s.rel.SegCap*g.Stride)
		d := g.Data[base : base+n*g.Stride]
		if g.Stride > g.Width {
			clear(d) // padding words stay zero
		}
		for i, a := range g.Attrs {
			for r, tup := range tuples {
				d[r*g.Stride+i] = tup[a]
			}
		}
		g.Rows += n
		if g.zm == nil {
			g.zm = NewZoneMap(g.Width, 0)
		}
		g.zm.extend(g)
	}
	s.Rows += n
}

// grow extends Data by words, reallocating at most once. Growth is
// geometric — at least double, never past limit words — so a stream of
// small batches copies the tail O(log SegCap) times over its life instead
// of once per batch.
func (g *ColumnGroup) grow(words, limit int) {
	need := len(g.Data) + words
	if cap(g.Data) < need {
		grown := make([]data.Value, len(g.Data), max(need, min(2*cap(g.Data), limit)))
		copy(grown, g.Data)
		g.Data = grown
	}
	g.Data = g.Data[:need]
}
