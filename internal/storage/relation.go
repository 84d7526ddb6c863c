package storage

import (
	"fmt"
	"strings"
	"sync/atomic"

	"h2o/internal/data"
)

// Relation is a stored relation: a schema, a total row count and an ordered
// list of fixed-capacity Segments, each carrying its own column-group set,
// zone maps and version. Layout decisions are segment-local — the paper's
// hybrid design taken one step further: not only may "the same piece of
// data be stored in more than one format", different *slices* of the
// relation may be stored in different formats, because adaptation touches
// only the segments the workload makes hot.
//
// The last segment is the mutable tail: appends grow it until SegCap rows,
// then it seals and a fresh tail opens with the same layout. Sealed
// segments are never copied or rescanned by appends, so insert cost is
// O(segment), not O(relation).
//
// A Relation carries a monotonically increasing version that advances on
// every mutation — appends as well as layout reorganizations in any
// segment. Result caches key entries by this version, so a bump implicitly
// invalidates everything cached against the previous state without any
// explicit eviction pass. The Relation itself performs no locking: callers
// (the engine) serialize mutations against reads; only the version counter
// is atomic so serving layers can read it without holding the engine's
// lock.
type Relation struct {
	Schema *data.Schema
	Rows   int // total rows across all segments
	SegCap int // rows per segment before the tail seals

	Segments []*Segment

	// version is this relation's slice of the process-wide version clock.
	// Read with Version; advanced with bumpVersion under the caller's
	// write lock.
	version atomic.Uint64

	// id is the relation's immutable process-unique identity, drawn from
	// the version clock at construction. Cache fingerprints mix it in so
	// that two relations whose candidate segment sets are both empty (every
	// segment pruned, or no rows yet) still key apart — replacing a table
	// can never make an old empty-set entry addressable again.
	id uint64

	// loader faults spilled segments back in (tiered storage, see
	// residency.go). Installed once with SetLoader before the relation
	// serves readers; nil means every segment is permanently resident.
	loader Loader

	// EncodeOnSeal makes the append path build each segment's encoded form
	// (encode.go) the moment the tail seals, while its data is still hot in
	// cache. Enabled by engines running an encoded tier; costs one stats +
	// pack pass per sealed segment.
	EncodeOnSeal bool
}

// versionClock is the process-wide source of relation and segment versions.
// Drawing every version — including the initial one — from a single
// monotone counter means a version value is never reused across relations:
// replacing a table (reload, re-registration) can never resurrect a cache
// entry keyed under the old relation's versions.
var versionClock atomic.Uint64

// Version returns the relation's current version. It is safe to call
// without external locking.
func (r *Relation) Version() uint64 { return r.version.Load() }

// ID returns the relation's immutable process-unique identity. Unlike
// Version it never changes after construction; serving layers mix it into
// segment-set fingerprints (see the field comment). Safe without locks.
func (r *Relation) ID() uint64 { return r.id }

// SegmentVersions snapshots every segment's current version in segment
// order — the relation-wide version vector behind segment-precise result
// caching. The per-segment loads are atomic, but the segment *list* grows
// under appends, so callers must hold the engine lock (shared is enough)
// for a consistent snapshot.
func (r *Relation) SegmentVersions() []uint64 {
	out := make([]uint64, len(r.Segments))
	for i, s := range r.Segments {
		out[i] = s.Version()
	}
	return out
}

// bumpVersion advances the relation to a fresh process-unique version.
// Callers hold the exclusive lock that serializes the mutation itself.
func (r *Relation) bumpVersion() { r.version.Store(versionClock.Add(1)) }

// Tail returns the relation's mutable tail segment.
func (r *Relation) Tail() *Segment { return r.Segments[len(r.Segments)-1] }

// NewRelation creates a relation from a set of full-length groups, slicing
// them into segments of DefaultSegmentCapacity rows. It validates that the
// groups cover the schema and share the relation's row count. Slicing
// shares the groups' backing arrays — construction is O(zone-map build),
// not O(copy).
func NewRelation(schema *data.Schema, rows int, groups []*ColumnGroup) (*Relation, error) {
	return NewRelationSeg(schema, rows, groups, DefaultSegmentCapacity)
}

// NewRelationSeg is NewRelation with an explicit segment capacity, used by
// tests and benchmarks that need many segments at small scale.
func NewRelationSeg(schema *data.Schema, rows int, groups []*ColumnGroup, segCap int) (*Relation, error) {
	covered := make([]bool, schema.NumAttrs())
	for _, g := range groups {
		if g.Rows != rows {
			return nil, fmt.Errorf("storage: group %v has %d rows, relation %q has %d", g.Attrs, g.Rows, schema.Name, rows)
		}
		if !schema.ValidAttrs(g.Attrs) {
			return nil, fmt.Errorf("storage: group %v references attributes outside schema %q", g.Attrs, schema.Name)
		}
		for _, a := range g.Attrs {
			covered[a] = true
		}
	}
	for a, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("storage: attribute %s of %q not covered by any group", schema.AttrName(a), schema.Name)
		}
	}
	return wrapSegments(schema, rows, groups, segCap), nil
}

// WrapGroups builds a segmented relation without the schema-coverage check:
// kernel harnesses use it to wrap a single group as a relation restricted
// to that group. Row counts must still match.
func WrapGroups(schema *data.Schema, rows int, groups []*ColumnGroup) *Relation {
	return wrapSegments(schema, rows, groups, DefaultSegmentCapacity)
}

// wrapSegments slices full-length groups into segments of segCap rows.
func wrapSegments(schema *data.Schema, rows int, groups []*ColumnGroup, segCap int) *Relation {
	if segCap <= 0 {
		segCap = DefaultSegmentCapacity
	}
	r := &Relation{Schema: schema, Rows: rows, SegCap: segCap}
	nSegs := (rows + segCap - 1) / segCap
	if nSegs == 0 {
		nSegs = 1
	}
	r.Segments = make([]*Segment, nSegs)
	for si := 0; si < nSegs; si++ {
		lo := si * segCap
		hi := lo + segCap
		if hi > rows {
			hi = rows
		}
		segGroups := make([]*ColumnGroup, len(groups))
		for gi, g := range groups {
			segGroups[gi] = g.slice(lo, hi)
		}
		r.Segments[si] = newSegment(r, hi-lo, segGroups)
	}
	// Start at a fresh process-unique version so this relation's cache keys
	// can never collide with those of a relation it replaces.
	r.bumpVersion()
	r.id = versionClock.Add(1)
	return r
}

// AssembleRelation builds a relation from explicit per-segment group sets
// (persist restores snapshots through it). Every segment's groups must
// cover the schema and share that segment's row count; only the last
// segment may hold fewer than segCap rows.
func AssembleRelation(schema *data.Schema, segCap int, segGroups [][]*ColumnGroup) (*Relation, error) {
	if segCap <= 0 {
		segCap = DefaultSegmentCapacity
	}
	if len(segGroups) == 0 {
		return nil, fmt.Errorf("storage: relation needs at least one segment")
	}
	r := &Relation{Schema: schema, SegCap: segCap}
	for si, groups := range segGroups {
		if len(groups) == 0 {
			return nil, fmt.Errorf("storage: segment %d has no groups", si)
		}
		rows := groups[0].Rows
		if rows > segCap {
			return nil, fmt.Errorf("storage: segment %d has %d rows, capacity is %d", si, rows, segCap)
		}
		if rows < segCap && si < len(segGroups)-1 {
			return nil, fmt.Errorf("storage: interior segment %d holds %d rows, want %d (only the tail may be partial)", si, rows, segCap)
		}
		covered := make([]bool, schema.NumAttrs())
		for _, g := range groups {
			if g.Rows != rows {
				return nil, fmt.Errorf("storage: segment %d group %v has %d rows, segment has %d", si, g.Attrs, g.Rows, rows)
			}
			if !schema.ValidAttrs(g.Attrs) {
				return nil, fmt.Errorf("storage: segment %d group %v references attributes outside schema %q", si, g.Attrs, schema.Name)
			}
			for _, a := range g.Attrs {
				covered[a] = true
			}
		}
		for a, ok := range covered {
			if !ok {
				return nil, fmt.Errorf("storage: segment %d: attribute %s not covered", si, schema.AttrName(a))
			}
		}
		r.Segments = append(r.Segments, newSegment(r, rows, groups))
		r.Rows += rows
	}
	r.bumpVersion()
	r.id = versionClock.Add(1)
	return r, nil
}

// BuildColumnMajor materializes t as a pure column-major relation
// (one width-1 group per attribute).
func BuildColumnMajor(t *data.Table) *Relation {
	return BuildColumnMajorSeg(t, DefaultSegmentCapacity)
}

// BuildColumnMajorSeg is BuildColumnMajor with an explicit segment capacity.
func BuildColumnMajorSeg(t *data.Table, segCap int) *Relation {
	groups := make([]*ColumnGroup, t.Schema.NumAttrs())
	for a := range groups {
		groups[a] = BuildGroup(t, []data.AttrID{a})
	}
	rel, err := NewRelationSeg(t.Schema, t.Rows, groups, segCap)
	if err != nil {
		panic(err) // unreachable: construction covers the schema by design
	}
	return rel
}

// BuildRowMajor materializes t as a single row-major group. If padded is
// true the group carries the NSM page/slot overhead the paper measures for
// the commercial row store.
func BuildRowMajor(t *data.Table, padded bool) *Relation {
	return BuildRowMajorSeg(t, padded, DefaultSegmentCapacity)
}

// BuildRowMajorSeg is BuildRowMajor with an explicit segment capacity.
func BuildRowMajorSeg(t *data.Table, padded bool, segCap int) *Relation {
	all := make([]data.AttrID, t.Schema.NumAttrs())
	for a := range all {
		all[a] = a
	}
	pad := 0
	if padded {
		pad = RowOverheadWords(len(all))
	}
	rel, err := NewRelationSeg(t.Schema, t.Rows, []*ColumnGroup{BuildGroupPadded(t, all, pad)}, segCap)
	if err != nil {
		panic(err)
	}
	return rel
}

// BuildPartitioned materializes t according to an explicit vertical
// partitioning: one group per attribute set in parts. Parts must cover the
// schema (they may overlap).
func BuildPartitioned(t *data.Table, parts [][]data.AttrID) (*Relation, error) {
	groups := make([]*ColumnGroup, len(parts))
	for i, p := range parts {
		groups[i] = BuildGroup(t, p)
	}
	return NewRelation(t.Schema, t.Rows, groups)
}

// Kind classifies the relation's layout: the shared kind when every segment
// agrees, KindGroup when segments have diverged (mixed layouts are hybrid
// by definition).
func (r *Relation) Kind() LayoutKind {
	k := r.Segments[0].Kind()
	for _, s := range r.Segments[1:] {
		if s.Kind() != k {
			return KindGroup
		}
	}
	return k
}

// Bytes returns the total in-memory footprint of all segments.
func (r *Relation) Bytes() int64 {
	var n int64
	for _, s := range r.Segments {
		n += s.Bytes()
	}
	return n
}

// Uniform reports whether every segment currently shares the same layout.
func (r *Relation) Uniform() bool {
	sig := r.Segments[0].LayoutSignature()
	for _, s := range r.Segments[1:] {
		if s.LayoutSignature() != sig {
			return false
		}
	}
	return true
}

// GroupFor returns the first segment's narrowest group storing attribute a
// — a *representative* for layout introspection and planning. Kernels that
// read data resolve groups per segment; on a single-segment relation the
// representative is the real thing.
func (r *Relation) GroupFor(a data.AttrID) (*ColumnGroup, error) {
	return r.Segments[0].GroupFor(a)
}

// CoveringGroups returns the first segment's covering set for attrs — a
// representative for planning and layout introspection (see GroupFor).
func (r *Relation) CoveringGroups(attrs []data.AttrID) ([]*ColumnGroup, map[data.AttrID]*ColumnGroup, error) {
	return r.Segments[0].CoveringGroups(attrs)
}

// ExactGroup reports whether *every* segment carries a group over exactly
// attrs, returning the first segment's instance. A partially reorganized
// relation (hot segments adapted, cold ones not) reports false, which is
// what keeps the proposal alive for the remaining segments.
func (r *Relation) ExactGroup(attrs []data.AttrID) (*ColumnGroup, bool) {
	first, ok := r.Segments[0].ExactGroup(attrs)
	if !ok {
		return nil, false
	}
	for _, s := range r.Segments[1:] {
		if _, ok := s.ExactGroup(attrs); !ok {
			return nil, false
		}
	}
	return first, true
}

// CommonLayout returns the attribute sets present in every segment — the
// layout the advisor treats as "existing" when generating proposals, so
// groups that cover only hot segments can still be proposed for segments
// that lack them.
func (r *Relation) CommonLayout() [][]data.AttrID {
	var out [][]data.AttrID
	for _, g := range r.Segments[0].Groups {
		inAll := true
		for _, s := range r.Segments[1:] {
			if _, ok := s.ExactGroup(g.Attrs); !ok {
				inAll = false
				break
			}
		}
		if inAll {
			out = append(out, g.Attrs)
		}
	}
	return out
}

// AddGroup registers a full-relation-length group with every segment by
// slicing it (sharing its backing array). The group must match the
// relation's row count. Offline tools and tests use it; the engine's
// online path adds segment-local groups directly.
func (r *Relation) AddGroup(g *ColumnGroup) error {
	if g.Rows != r.Rows {
		return fmt.Errorf("storage: group %v has %d rows, relation has %d", g.Attrs, g.Rows, r.Rows)
	}
	base := 0
	for _, s := range r.Segments {
		if err := s.AddGroup(g.slice(base, base+s.Rows)); err != nil {
			return err
		}
		base += s.Rows
	}
	return nil
}

// DropGroup removes the group with g's exact attribute set from every
// segment, provided the drop keeps each segment's schema coverage intact.
// All-or-nothing: if any segment would lose coverage or lacks the group,
// nothing is dropped. Reports whether the drop happened.
func (r *Relation) DropGroup(g *ColumnGroup) bool {
	targets := make([]*ColumnGroup, len(r.Segments))
	for si, s := range r.Segments {
		t, ok := s.ExactGroup(g.Attrs)
		if !ok {
			return false
		}
		idx := -1
		for i, have := range s.Groups {
			if have == t {
				idx = i
				break
			}
		}
		if idx < 0 || !s.coveredWithout(idx) {
			return false
		}
		targets[si] = t
	}
	for si, s := range r.Segments {
		if !s.DropGroup(targets[si]) {
			// Unreachable: checked above under the same exclusive lock.
			panic("storage: DropGroup lost a group between check and drop")
		}
	}
	return true
}

// LayoutSignature returns a stable human-readable description of the
// current partitioning. A uniform relation reports its shared per-segment
// signature; a mixed one enumerates each run of segments sharing a layout.
func (r *Relation) LayoutSignature() string {
	if r.Uniform() {
		return r.Segments[0].LayoutSignature()
	}
	var b strings.Builder
	runStart := 0
	sig := r.Segments[0].LayoutSignature()
	flush := func(end int) {
		if b.Len() > 0 {
			b.WriteString(" ;; ")
		}
		fmt.Fprintf(&b, "seg[%d:%d] %s", runStart, end, sig)
	}
	for si := 1; si < len(r.Segments); si++ {
		if s := r.Segments[si].LayoutSignature(); s != sig {
			flush(si)
			runStart, sig = si, s
		}
	}
	flush(len(r.Segments))
	return b.String()
}
