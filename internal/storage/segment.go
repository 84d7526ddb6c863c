package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"h2o/internal/data"
	"h2o/internal/expr"
)

// DefaultSegmentCapacity is the number of rows a segment holds before the
// tail seals and a fresh one opens. 64K rows keeps a segment's working set
// cache-friendly while making segment-granular reorganization and
// parallelism meaningful on multi-million-row relations.
const DefaultSegmentCapacity = 64 * 1024

// Segment is one fixed-capacity horizontal slice of a relation, carrying
// its own column-group set, per-group zone maps, a layout index and a
// version. Segments are the unit of adaptation (hot segments are
// reorganized, cold ones keep their layout — a relation legitimately holds
// mixed layouts across segments), the unit of scan parallelism, and the
// unit of zone-map pruning. Only the relation's last segment (the tail)
// is mutable: appends grow it until capacity, then it seals.
//
// A Segment performs no locking; the engine serializes mutations against
// reads exactly as it does for the relation. The version and read counters
// are atomic so serving and monitoring layers can sample them lock-free.
type Segment struct {
	Groups []*ColumnGroup
	Rows   int

	rel *Relation // parent, for schema access and version propagation

	// narrowest caches, per attribute, the narrowest group storing it.
	narrowest []*ColumnGroup
	// sig is the cached layout signature, recomputed on every group-set
	// change (always under the engine's exclusive lock, so readers under
	// the shared lock never observe a torn value).
	sig string

	// version is this segment's slice of the process-wide version clock,
	// advanced on any mutation of the segment (appends, group add/drop).
	version atomic.Uint64
	// history records (version, Rows) at every version bump, in version
	// order, so RowsAt can say how many rows the segment held at a version
	// a cached partial was computed at. Rows below that count never change
	// (appends only add rows; reorganization copies values), which is what
	// lets delta repair fold just the suffix. Written under the engine's
	// exclusive lock, read under the shared one; trimmed to its last entry
	// when the tail seals.
	history []versionRows
	// reads counts scans that actually touched this segment (pruned scans
	// do not count) since the engine last reset it — the access-frequency
	// signal behind hot/cold reorganization and eviction decisions.
	reads atomic.Uint64

	// Residency (tiered storage, see residency.go): resMu serializes
	// state transitions and pin accounting; while SegSpilled, every
	// group's Data is nil and only metadata stays in memory. faults
	// counts page-ins served.
	resMu  sync.Mutex
	pins   int
	state  SegState
	faults uint64
	// mapRel releases the mmap backing the segment's installed encodings,
	// if any; set by the loader under resMu, run and cleared by Unload.
	mapRel func()
}

// newSegment assembles a segment from groups that all share the same row
// count. Callers validated coverage; this wires the index and zone maps.
func newSegment(rel *Relation, rows int, groups []*ColumnGroup) *Segment {
	s := &Segment{Groups: groups, Rows: rows, rel: rel}
	for _, g := range groups {
		if g.zm == nil {
			g.BuildZones(0)
		}
	}
	s.rebuildIndex()
	s.bumpVersion()
	return s
}

// Version returns the segment's current version. Safe without locks.
func (s *Segment) Version() uint64 { return s.version.Load() }

func (s *Segment) bumpVersion() {
	v := versionClock.Add(1)
	s.history = append(s.history, versionRows{version: v, rows: s.Rows})
	s.version.Store(v)
}

// versionRows is one history entry: the segment held rows rows at version.
type versionRows struct {
	version uint64
	rows    int
}

// RowsAt returns the row count the segment had at version v, and false
// when v is not a version the retained history knows — never held by this
// segment, or trimmed when the tail sealed. Callers hold the engine's
// shared lock.
func (s *Segment) RowsAt(v uint64) (int, bool) {
	h := s.history
	i := sort.Search(len(h), func(i int) bool { return h[i].version >= v })
	if i < len(h) && h[i].version == v {
		return h[i].rows, true
	}
	return 0, false
}

// seal trims the history to its last entry: a sealed segment never grows
// again, so older row counts only serve partials computed before the
// seal, and those fall back to a full rescan.
func (s *Segment) seal() {
	s.history = []versionRows{s.history[len(s.history)-1]}
}

// Suffix returns a read-only view of rows [lo, Rows): the same group set
// and layout, each group sliced without copying. It has no zone maps (its
// scans read every row), no version and no residency of its own — the
// caller pins the parent segment around any scan of the view. Delta
// repair scans a grown segment's suffix through it, so every per-segment
// operator serves suffixes unchanged.
func (s *Segment) Suffix(lo int) *Segment {
	v := &Segment{
		Groups:    make([]*ColumnGroup, len(s.Groups)),
		Rows:      s.Rows - lo,
		rel:       s.rel,
		narrowest: make([]*ColumnGroup, len(s.narrowest)),
		sig:       s.sig,
	}
	for i, g := range s.Groups {
		v.Groups[i] = g.slice(lo, s.Rows)
		for _, a := range g.Attrs {
			if s.narrowest[a] == g {
				v.narrowest[a] = v.Groups[i]
			}
		}
	}
	return v
}

// Touch records one scan of the segment. Execution kernels call it when a
// segment is actually read (not pruned); safe under the shared read lock.
func (s *Segment) Touch() { s.reads.Add(1) }

// Reads returns the scans since the last ResetReads.
func (s *Segment) Reads() uint64 { return s.reads.Load() }

// ResetReads zeroes the access counter; the engine calls it at each
// adaptation phase so hotness reflects the current window.
func (s *Segment) ResetReads() { s.reads.Store(0) }

// schema returns the parent relation's schema.
func (s *Segment) schema() *data.Schema { return s.rel.Schema }

// Kind classifies the segment's current layout.
func (s *Segment) Kind() LayoutKind {
	if len(s.Groups) == 1 && s.Groups[0].Width == s.schema().NumAttrs() {
		return KindRow
	}
	for _, g := range s.Groups {
		if g.Width != 1 {
			return KindGroup
		}
	}
	return KindColumn
}

// Bytes returns the logical footprint of the segment's groups — the bytes
// the data occupies when resident, regardless of the current residency
// state (use ResidentBytes for the in-memory portion).
func (s *Segment) Bytes() int64 {
	var n int64
	for _, g := range s.Groups {
		n += g.Bytes()
	}
	return n
}

// GroupFor returns the narrowest group storing attribute a.
func (s *Segment) GroupFor(a data.AttrID) (*ColumnGroup, error) {
	if s.narrowest == nil {
		s.rebuildIndex()
	}
	if a >= 0 && a < len(s.narrowest) {
		if g := s.narrowest[a]; g != nil {
			return g, nil
		}
	}
	return nil, fmt.Errorf("storage: no group stores attribute %s", s.schema().AttrName(a))
}

// rebuildIndex recomputes the narrowest-group cache and the cached layout
// signature. Called on every group-set change, under the caller's
// exclusive lock.
func (s *Segment) rebuildIndex() {
	s.narrowest = make([]*ColumnGroup, s.schema().NumAttrs())
	for _, g := range s.Groups {
		for _, a := range g.Attrs {
			if best := s.narrowest[a]; best == nil || g.Width < best.Width {
				s.narrowest[a] = g
			}
		}
	}
	parts := make([]string, len(s.Groups))
	for i, g := range s.Groups {
		parts[i] = fmt.Sprint(g.Attrs)
	}
	sort.Strings(parts)
	sig := ""
	for i, p := range parts {
		if i > 0 {
			sig += " | "
		}
		sig += p
	}
	s.sig = sig
}

// LayoutSignature returns a stable human-readable description of the
// segment's partitioning.
func (s *Segment) LayoutSignature() string {
	if s.sig == "" && len(s.Groups) > 0 {
		s.rebuildIndex()
	}
	return s.sig
}

// ExactGroup returns the group whose attribute set is exactly attrs, if any.
func (s *Segment) ExactGroup(attrs []data.AttrID) (*ColumnGroup, bool) {
	want := data.SortedUnique(attrs)
	for _, g := range s.Groups {
		if sameAttrs(g.Attrs, want) {
			return g, true
		}
	}
	return nil, false
}

// CoveringGroups returns a small set of the segment's groups that together
// store every attribute in attrs, using a greedy set cover that prefers
// groups covering the most still-missing attributes and, on ties, the
// narrowest group (least wasted bandwidth). The returned assignment maps
// each requested attribute to the group chosen for it.
func (s *Segment) CoveringGroups(attrs []data.AttrID) ([]*ColumnGroup, map[data.AttrID]*ColumnGroup, error) {
	// need[a] marks an attribute still missing, left counts them.
	need := make([]bool, maxAttrID(attrs)+1)
	left := 0
	for _, a := range attrs {
		if a >= 0 && !need[a] {
			need[a] = true
			left++
		}
	}
	var chosen []*ColumnGroup
	assign := make(map[data.AttrID]*ColumnGroup, left)
	for left > 0 {
		var best *ColumnGroup
		bestCover := 0
		for _, g := range s.Groups {
			cover := 0
			for _, a := range g.Attrs {
				if a < len(need) && need[a] {
					cover++
				}
			}
			if cover == 0 {
				continue
			}
			if best == nil || cover > bestCover || (cover == bestCover && g.Width < best.Width) {
				best, bestCover = g, cover
			}
		}
		if best == nil {
			break
		}
		chosen = append(chosen, best)
		for _, a := range best.Attrs {
			if a < len(need) && need[a] {
				assign[a] = best
				need[a] = false
				left--
			}
		}
	}
	var missing []data.AttrID
	for _, a := range attrs {
		if a < 0 || need[a] {
			missing = append(missing, a)
		}
	}
	if missing != nil {
		return nil, nil, fmt.Errorf("storage: attributes %v not covered by any group of %q", data.SortedUnique(missing), s.schema().Name)
	}
	return chosen, assign, nil
}

// maxAttrID returns the largest attribute id in attrs, -1 for none.
func maxAttrID(attrs []data.AttrID) data.AttrID {
	m := data.AttrID(-1)
	for _, a := range attrs {
		m = max(m, a)
	}
	return m
}

// AddGroup registers a new group with the segment. The group must match the
// segment's row count. Both the segment and the relation version advance.
func (s *Segment) AddGroup(g *ColumnGroup) error {
	if g.Rows != s.Rows {
		return fmt.Errorf("storage: group %v has %d rows, segment has %d", g.Attrs, g.Rows, s.Rows)
	}
	if g.zm == nil {
		g.BuildZones(0)
	}
	s.Groups = append(s.Groups, g)
	s.rebuildIndex()
	s.bumpVersion()
	s.rel.bumpVersion()
	return nil
}

// DropGroup removes a group from the segment if removing it keeps the
// schema covered; it reports whether the group was removed.
func (s *Segment) DropGroup(g *ColumnGroup) bool {
	idx := -1
	for i, have := range s.Groups {
		if have == g {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	if !s.coveredWithout(idx) {
		return false
	}
	// Shift down and clear the vacated last slot: a stale copy of the last
	// pointer past the new length would keep that group reachable after a
	// later drop.
	last := len(s.Groups) - 1
	copy(s.Groups[idx:], s.Groups[idx+1:])
	s.Groups[last] = nil
	s.Groups = s.Groups[:last]
	s.rebuildIndex()
	s.bumpVersion()
	s.rel.bumpVersion()
	return true
}

// coveredWithout reports whether dropping the idx-th group keeps every
// schema attribute stored by some remaining group.
func (s *Segment) coveredWithout(idx int) bool {
	covered := make([]bool, s.schema().NumAttrs())
	for i, have := range s.Groups {
		if i == idx {
			continue
		}
		for _, a := range have.Attrs {
			covered[a] = true
		}
	}
	for _, ok := range covered {
		if !ok {
			return false
		}
	}
	return true
}

// MayMatch reports whether any row of the segment can satisfy
// "attr op v", consulting the zone map of the narrowest group storing the
// attribute. Unknown (no group, no zone map) conservatively reports true;
// an empty segment reports false. A false answer lets scans skip the whole
// segment without touching a single row.
func (s *Segment) MayMatch(a data.AttrID, op expr.CmpOp, v data.Value) bool {
	if s.Rows == 0 {
		return false
	}
	if s.narrowest == nil || a < 0 || a >= len(s.narrowest) {
		return true
	}
	g := s.narrowest[a]
	if g == nil || g.zm == nil {
		return true
	}
	off, ok := g.Offset(a)
	if !ok {
		return true
	}
	return g.zm.MayMatchAny(off, op, v)
}

// Bounds returns the exact minimum and maximum of attribute a over the
// segment's rows: the Bounds of the narrowest group storing it. ok is
// false when no zone map covers a, as on suffix views and empty segments.
func (s *Segment) Bounds(a data.AttrID) (lo, hi data.Value, ok bool) {
	if a < 0 || a >= len(s.narrowest) || s.narrowest[a] == nil {
		return 0, 0, false
	}
	return s.narrowest[a].Bounds(a)
}

// sameAttrs reports whether two sorted attribute sets are identical.
func sameAttrs(a, b []data.AttrID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
