package storage

import (
	"fmt"

	"h2o/internal/data"
)

// Append adds one tuple (a full-width value slice in schema attribute
// order) to the relation. Only the mutable tail segment is touched: its
// column groups each grow by one mini-tuple and their zone maps extend
// incrementally. When the tail reaches SegCap rows it seals and a fresh
// tail opens with the same layout — sealed segments are never copied or
// rescanned, so append cost is O(tail segment), not O(relation).
//
// H2O is a read-optimized analytical store — the paper evaluates scans, not
// updates — so appends are the only write: densely packed, no free space,
// no in-place updates (§3.1: "attributes are densely-packed and no
// additional space is left for updates").
func (r *Relation) Append(tuple []data.Value) error {
	if len(tuple) != r.Schema.NumAttrs() {
		return fmt.Errorf("storage: tuple has %d values, schema %q has %d attributes",
			len(tuple), r.Schema.Name, r.Schema.NumAttrs())
	}
	scratch := make([]data.Value, r.Schema.NumAttrs())
	tail := r.tailWithRoom()
	tail.appendTuple(tuple, scratch)
	tail.bumpVersion()
	r.Rows++
	r.bumpVersion()
	return nil
}

// AppendBatch adds many tuples; it validates all widths before mutating
// anything, so a bad batch leaves the relation untouched. Batches may roll
// over any number of segment boundaries.
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
	scratch := make([]data.Value, r.Schema.NumAttrs())
	for len(tuples) > 0 {
		tail := r.tailWithRoom()
		room := r.SegCap - tail.Rows
		n := len(tuples)
		if n > room {
			n = room
		}
		tail.growFor(n)
		for _, tup := range tuples[:n] {
			tail.appendTuple(tup, scratch)
		}
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

// growFor pre-grows each group's backing array for n more tuples so a
// batch append within one segment reallocates at most once per group.
// Growth is geometric — at least double, never past SegCap rows — so a
// stream of small batches copies the tail O(log SegCap) times over its
// life instead of once per batch.
func (s *Segment) growFor(n int) {
	for _, g := range s.Groups {
		need := len(g.Data) + n*g.Stride
		if cap(g.Data) >= need {
			continue
		}
		grow := 2 * cap(g.Data)
		if limit := s.rel.SegCap * g.Stride; grow > limit {
			grow = limit
		}
		if grow < need {
			grow = need
		}
		grown := make([]data.Value, len(g.Data), grow)
		copy(grown, g.Data)
		g.Data = grown
	}
}
