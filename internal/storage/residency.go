package storage

import (
	"fmt"

	"h2o/internal/data"
)

// Tiered storage: sealed segments are immutable, so their group data can be
// spilled to disk and paged back on demand while every piece of metadata —
// attribute sets, strides, zone maps, the narrowest-group index, versions
// and read counters — stays resident. Planning, layout introspection and
// zone-map pruning therefore never touch disk; only a scan that actually
// needs a spilled segment's rows pays a fault.
//
// The residency state machine per segment is a three-rung ladder:
//
//	SegResident --DemoteToEncoded()--> SegEncoded --Unload()--> SegSpilled
//	SegSpilled --AcquireEncoded()/loader--> SegEncoded or SegResident
//	SegEncoded  --Acquire()/decode--> SegResident
//
// SegEncoded is the middle rung: flat group data has been dropped but the
// compact encoded form (encode.go) stays in memory, so encoded-aware scans
// run with zero I/O and a flat fault is a decode, not a disk read. The
// eviction manager demotes before it spills, because a demotion frees most
// of a segment's bytes for free.
//
// Scans synchronize with eviction through pins: every reader of group Data
// brackets the access with Acquire/Release (encoded readers use
// AcquireEncoded), and Unload/DemoteToEncoded refuse pinned segments.
// Residency transitions are NOT mutations — they never bump the segment or
// relation version, so result-cache entries stay valid across a
// spill/fault cycle. Mutations (appends, group add/drop) are only legal on
// resident segments: the engine pages a segment in before reorganizing it,
// the tail is never evictable, and offline tools operate on fully resident
// relations.

// SegState is a segment's residency state.
type SegState int32

const (
	// SegResident means the segment's flat group data is in memory.
	SegResident SegState = iota
	// SegSpilled means the group data lives only in the segment's spill
	// file; every group's Data is nil until a loader faults it back in.
	SegSpilled
	// SegEncoded means flat data has been dropped but every group holds
	// its encoded form in memory (heap or mmap-backed).
	SegEncoded
)

// Loader faults one spilled segment's group data back into memory. It is
// called with the segment's residency lock held, so at most one fault per
// segment is in flight. Implementations must either fill every group's
// Data or install an encoding on every group (SetEncoding — the mmap path
// does this), and nothing else, or return an error leaving the segment
// untouched.
type Loader func(*Segment) error

// SetLoader installs the fault-in callback for spilled segments. It must be
// called before the relation serves concurrent readers (the field is read
// without synchronization on the scan path); nil means every segment is
// permanently resident and Unload must not be used.
func (r *Relation) SetLoader(fn Loader) { r.loader = fn }

// Acquire pins the segment's data in memory for the duration of a scan,
// faulting it in through the relation's loader when spilled. It reports
// whether a fault (disk read) occurred. Pins nest; every Acquire must be
// paired with Release. Metadata-only readers (zone maps, covering-group
// planning) need no pin.
func (s *Segment) Acquire() (faulted bool, err error) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.state == SegSpilled {
		load := s.rel.loader
		if load == nil {
			return false, fmt.Errorf("storage: segment of %q is spilled and relation has no loader", s.rel.Schema.Name)
		}
		if err := load(s); err != nil {
			return false, fmt.Errorf("storage: faulting segment of %q in: %w", s.rel.Schema.Name, err)
		}
		s.faults++
		faulted = true
	}
	// The loader may have installed encodings instead of flat data (the
	// mmap path), or the segment may sit on the encoded rung: materialize
	// any group that has no flat data. A decode is not a disk fault.
	for _, g := range s.Groups {
		if g.Data == nil && g.Rows > 0 {
			e := g.enc.Load()
			if e == nil {
				return faulted, fmt.Errorf("storage: segment of %q has neither data nor encoding after load", s.rel.Schema.Name)
			}
			e.DecodeInto(g)
		}
	}
	s.state = SegResident
	s.pins++
	return faulted, nil
}

// AcquireEncoded pins the segment at encoded-or-better residency: after it
// returns, every group either has flat Data or an installed encoding, and
// the segment will not be demoted or unloaded until Release. Encoded-aware
// scans use it to read spilled segments without paying a full decode.
func (s *Segment) AcquireEncoded() (faulted bool, err error) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.state == SegSpilled {
		load := s.rel.loader
		if load == nil {
			return false, fmt.Errorf("storage: segment of %q is spilled and relation has no loader", s.rel.Schema.Name)
		}
		if err := load(s); err != nil {
			return false, fmt.Errorf("storage: faulting segment of %q in: %w", s.rel.Schema.Name, err)
		}
		s.faults++
		faulted = true
		flat := true
		for _, g := range s.Groups {
			if g.Data == nil && g.Rows > 0 {
				flat = false
				break
			}
		}
		if flat {
			s.state = SegResident
		} else {
			s.state = SegEncoded
		}
	}
	s.pins++
	return faulted, nil
}

// FlatData returns g's flat data, or nil when only its encoding is
// resident. A reader holding an encoded pin (AcquireEncoded) must read a
// group's Data through it: a concurrent flat pin (Acquire) may decode the
// data in, and this read is ordered with that write by the residency lock.
// The result stays valid until the caller's pin is released.
func (s *Segment) FlatData(g *ColumnGroup) []data.Value {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	return g.Data
}

// DemoteToEncoded drops the segment's flat data, keeping only the encoded
// form in memory — the cheap first rung of eviction (no I/O; a later
// flat access pays a decode, not a disk read). It refuses — returning
// false — when the segment is pinned, not flat-resident, empty, or the
// mutable tail.
func (s *Segment) DemoteToEncoded() bool {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.pins > 0 || s.state != SegResident || s.Rows == 0 || s == s.rel.Tail() {
		return false
	}
	for _, g := range s.Groups {
		if g.Encoding() == nil {
			return false // no data to encode from; should not happen while resident
		}
	}
	for _, g := range s.Groups {
		g.Data = nil
	}
	s.state = SegEncoded
	return true
}

// Release drops one pin taken by Acquire.
func (s *Segment) Release() {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.pins <= 0 {
		panic("storage: Segment.Release without matching Acquire")
	}
	s.pins--
}

// Unload spills the segment: every group's Data and cached encoding are
// dropped and the state moves to SegSpilled. It refuses — returning false —
// when the segment is pinned by a scan, already spilled, empty, or the
// relation's mutable tail. The caller (the eviction manager) must have
// written a current spill file before unloading; Unload itself performs no
// I/O beyond releasing an mmap installed by a previous fault. Zone maps
// and all other metadata stay resident, and no version advances: residency
// is not a mutation.
func (s *Segment) Unload() bool {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.pins > 0 || s.state == SegSpilled || s.Rows == 0 || s == s.rel.Tail() {
		return false
	}
	for _, g := range s.Groups {
		g.Data = nil
		g.enc.Store(nil)
	}
	if s.mapRel != nil {
		s.mapRel()
		s.mapRel = nil
	}
	s.state = SegSpilled
	return true
}

// Resident reports whether the segment's flat data is currently in memory.
func (s *Segment) Resident() bool {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	return s.state == SegResident
}

// State returns the segment's residency state.
func (s *Segment) State() SegState {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	return s.state
}

// SetMapRelease installs a callback that releases the memory mapping
// backing the segment's current encodings. Loaders that install
// mmap-aliased encodings call it (the residency lock is already held
// there); Unload invokes and clears it.
func (s *Segment) SetMapRelease(fn func()) { s.mapRel = fn }

// ReleaseMapping force-drops any mmap-backed encodings and runs the
// release callback, used by the tier manager when it shuts down so spill
// mappings do not outlive their files. It refuses (returning false) while
// the segment is pinned. If the drop leaves an encoded-resident segment
// with nothing in memory its state falls back to SegSpilled.
func (s *Segment) ReleaseMapping() bool {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.mapRel == nil {
		return true
	}
	if s.pins > 0 {
		return false
	}
	for _, g := range s.Groups {
		if e := g.enc.Load(); e != nil && e.Mapped {
			g.enc.Store(nil)
		}
	}
	if s.state == SegEncoded {
		for _, g := range s.Groups {
			if g.Data == nil && g.enc.Load() == nil && g.Rows > 0 {
				s.state = SegSpilled
				break
			}
		}
	}
	s.mapRel()
	s.mapRel = nil
	return true
}

// Faults returns the number of page-ins this segment has served.
func (s *Segment) Faults() uint64 {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	return s.faults
}

// ResidentBytes returns the bytes of group data currently held in memory —
// zero for a spilled segment, Bytes() for a flat-resident one, and the
// (much smaller) heap footprint of the encodings for an encoded-resident
// one. mmap-backed encodings count as zero: their pages live in the OS
// page cache and are reclaimable. A flat-resident group's cached encoding
// is not counted — like zone maps, it is a small acceleration structure
// that rides along. It takes the residency lock: group Data slices are
// rewritten by concurrent faults.
func (s *Segment) ResidentBytes() int64 {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	var n int64
	for _, g := range s.Groups {
		if g.Data != nil {
			n += int64(len(g.Data)) * 8
		} else if e := g.enc.Load(); e != nil {
			n += e.HeapBytes()
		}
	}
	return n
}

// EncodedBytes returns the total payload bytes of the segment's cached or
// installed encodings (mmap-backed included), zero when none are present.
func (s *Segment) EncodedBytes() int64 {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	var n int64
	for _, g := range s.Groups {
		if e := g.enc.Load(); e != nil {
			n += e.Bytes()
		}
	}
	return n
}

// ResidentBytes sums the in-memory group data across all segments — the
// quantity an eviction manager holds under its byte budget.
func (r *Relation) ResidentBytes() int64 {
	var n int64
	for _, s := range r.Segments {
		n += s.ResidentBytes()
	}
	return n
}

// Compact gives every group of every segment its own exactly-sized
// backing array. Relations built by slicing full-length groups
// (NewRelation / wrapSegments) share one backing array across all
// segments — fine for a purely in-memory store, but fatal for eviction:
// unloading one segment would drop only its view while the sibling views
// (the unevictable tail, at minimum) kept the whole shared array
// reachable, so no memory would actually be freed. The eviction manager
// compacts once at setup, making Unload release real bytes. Caller holds
// the engine's exclusive access (construction time); O(relation copy).
func (r *Relation) Compact() {
	for _, s := range r.Segments {
		for _, g := range s.Groups {
			buf := make([]data.Value, len(g.Data))
			copy(buf, g.Data)
			g.Data = buf
		}
	}
}
