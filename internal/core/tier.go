package core

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"h2o/internal/persist"
	"h2o/internal/storage"
)

// TierStats snapshots one engine's tiered-storage state: how much of the
// relation is flat-resident, encoded-resident or spilled, and the lifetime
// I/O counters.
type TierStats struct {
	ResidentSegments int
	// EncodedSegments counts segments on the middle residency rung: flat
	// data dropped, compact encoded form on the heap (always zero unless
	// Options.EncodedTier is set). A segment whose encodings are served
	// straight from an mmap of its spill file holds no heap data and
	// counts as spilled instead.
	EncodedSegments int
	SpilledSegments int
	// ResidentBytes is the segment data currently held on the heap —
	// flat mini-tuples plus the heap footprint of encoded-resident
	// segments; SpilledBytes is the logical (flat) size of the data
	// living only in spill files.
	ResidentBytes int64
	SpilledBytes  int64
	// EncodedBytes is the total payload of the encodings currently
	// installed across all segments (heap or mmap-backed), whatever the
	// residency rung. Comparing it to the flat byte volume gives the
	// in-memory compression ratio.
	EncodedBytes int64
	// SpillFileBytes is the on-disk size of the current spill files; with
	// the encoded tier these hold encoded blocks, so SpillFileBytes over
	// SpilledBytes is the on-disk compression ratio.
	SpillFileBytes int64
	// Faults counts page-ins served (disk reads) and FaultedBytes the
	// spill-file bytes those faults covered (for mmap-served files this
	// is the mapped size — the OS faults individual 4K pages lazily, so
	// the bytes actually read can be lower). Evictions counts segments
	// unloaded to disk and Demotions segments dropped to the encoded rung
	// (no I/O); SpillWrites counts segment files written (at most one per
	// segment version — re-evicting an unchanged segment reuses its
	// file). SpillErrors counts failed spill-file writes (or a spill
	// directory that could not be created): a non-zero, growing value
	// means the disk tier is broken and the engine cannot shed memory —
	// the budget is not being enforced.
	Faults       uint64
	FaultedBytes uint64
	Evictions    uint64
	Demotions    uint64
	SpillWrites  uint64
	SpillErrors  uint64
}

// tierManager enforces Options.MemoryBudgetBytes over one relation: when
// the resident segment data exceeds the budget it spills the coldest
// sealed segments — fewest reads since the last adaptation phase, oldest
// first on ties, the newest sealed segment last of all — to a
// persist.SegmentStore, and serves as the relation's Loader to page them
// back in on demand. Residency changes never bump the relation or segment
// version, so result-cache entries survive a spill/fault cycle untouched.
//
// Concurrency: enforce may run under the engine's shared read lock — it
// synchronizes with in-flight scans purely through per-segment pins,
// skipping any segment a scan holds. Lock order is tm.mu -> segment
// residency lock; the loader runs under a segment's residency lock and
// takes no tierManager locks, so the two directions never deadlock.
type tierManager struct {
	rel    *storage.Relation
	budget int64
	// dir is the configured spill directory; empty means "a temp dir,
	// created (and owned — removed on close) at first spill". store is
	// built lazily on first use, so construction performs no I/O and a
	// broken spill path degrades to spillErrors + no eviction instead of
	// failing engine construction.
	dir     string
	ownsDir bool
	store   atomic.Pointer[persist.SegmentStore]

	// mu serializes enforcement passes and guards spilledV, dir and
	// closed.
	mu sync.Mutex
	// closed fences enforce/ensureStore after close: a late enforcement
	// pass (e.g. an insert's, racing a table replacement) must not
	// recreate the removed spill directory and strand files in it.
	closed bool
	// spilledV records the segment version each spill file was written at.
	// A segment mutated since its last spill (a reorganization added a
	// group) has a stale file, which is rewritten before the next
	// eviction; the version check in ReadSegment makes the staleness
	// detection crash-proof rather than advisory.
	spilledV map[*storage.Segment]uint64
	// spilledSize mirrors spilledV with each file's on-disk size, feeding
	// TierStats.SpillFileBytes and FaultedBytes without re-statting files
	// on every snapshot.
	spilledSize map[*storage.Segment]int64

	// encoded enables the middle eviction rung: demote flat segments to
	// their encoded form (no I/O) before resorting to spill writes.
	encoded bool

	// id makes this manager's spill-file keys unique within the process,
	// so an old engine's close (table replacement) can never delete the
	// files of the engine that replaced it in a shared SpillDir.
	id uint64

	evictions    atomic.Uint64
	demotions    atomic.Uint64
	spillWrites  atomic.Uint64
	spillErrors  atomic.Uint64
	faultedBytes atomic.Uint64
}

// tierSeq hands out process-unique tier-manager ids.
var tierSeq atomic.Uint64

// newTierManager builds the manager and installs its loader on rel. An
// empty dir selects a fresh temporary directory, created at first spill
// and removed again by close. The relation is compacted so each segment
// owns its buffers: without that, slicing-built relations share one
// backing array across segments and unloading would free nothing.
func newTierManager(rel *storage.Relation, budget int64, dir string, encoded bool) *tierManager {
	rel.Compact()
	tm := &tierManager{
		rel:         rel,
		budget:      budget,
		dir:         dir,
		ownsDir:     dir == "",
		encoded:     encoded,
		id:          tierSeq.Add(1),
		spilledV:    make(map[*storage.Segment]uint64),
		spilledSize: make(map[*storage.Segment]int64),
	}
	rel.SetLoader(tm.load)
	return tm
}

// ensureStore lazily creates the spill directory and store. Caller holds
// tm.mu; the store pointer is published atomically because the loader
// reads it without tm.mu.
func (tm *tierManager) ensureStore() (*persist.SegmentStore, error) {
	if st := tm.store.Load(); st != nil {
		return st, nil
	}
	if tm.closed {
		return nil, fmt.Errorf("core: spill store of %q is closed", tm.rel.Schema.Name)
	}
	if tm.dir == "" {
		d, err := os.MkdirTemp("", "h2o-spill-")
		if err != nil {
			return nil, err
		}
		tm.dir = d
	}
	st, err := persist.NewSegmentStore(tm.dir)
	if err != nil {
		return nil, err
	}
	tm.store.Store(st)
	return st, nil
}

// key names a segment's spill file. Sealed segments never move, so the
// index is stable; the relation name keeps tables sharing one SpillDir
// apart, and the process-unique manager id keeps successive engines over
// the *same* table name apart, so closing a replaced engine removes only
// its own files. (Distinct processes sharing one SpillDir remain
// unsupported.)
func (tm *tierManager) key(si int) string {
	return fmt.Sprintf("%s-e%d-seg%06d", tm.rel.Schema.Name, tm.id, si)
}

// load is the relation's Loader: it faults one spilled segment back in
// from its spill file. It runs under the segment's residency lock and must
// not take tm.mu (see the lock-order note on tierManager). A segment can
// only be spilled after the store was created, so a nil store here means
// the tier was closed underneath a stale engine reference.
func (tm *tierManager) load(seg *storage.Segment) error {
	st := tm.store.Load()
	if st == nil {
		return fmt.Errorf("core: spill store of %q is closed", tm.rel.Schema.Name)
	}
	for si, s := range tm.rel.Segments {
		if s == seg {
			if err := st.ReadSegment(tm.key(si), seg); err != nil {
				return err
			}
			// Attribute the fault's I/O volume. The file is statted rather
			// than looked up in spilledSize because load must not take
			// tm.mu (see the lock-order note above).
			if fi, err := os.Stat(st.Path(tm.key(si))); err == nil {
				tm.faultedBytes.Add(uint64(fi.Size()))
			}
			return nil
		}
	}
	return fmt.Errorf("core: spilled segment not found in relation %q", tm.rel.Schema.Name)
}

// enforce runs one eviction pass: if the relation's resident bytes exceed
// the budget, sealed resident segments are evicted coldest-first until the
// budget holds or no evictable segment remains (the mutable tail and any
// segment pinned by an in-flight scan are never evicted). With the encoded
// tier enabled, eviction descends a two-rung ladder: first demote flat
// segments to their compact encoded form — pure CPU, no I/O — and only if
// the budget still does not hold, spill to disk and unload. A segment whose
// spill file is missing or stale is written — pinned, atomically — before
// its data is dropped, so the file on disk always matches the segment
// version it claims.
//
// Victim order is (reads asc, segment index asc), except that the newest
// sealed segment ranks last. Reads are the engine's own evidence of which
// old data the workload touches. The newest sealed segment is the one the
// tail just handed over: it has had the least time to collect reads, yet
// recent-window queries (a0 >= now - w) read it next, so ranking it by
// reads alone would spill it first.
func (tm *tierManager) enforce() {
	// One enforcement pass at a time is enough: if another query's pass is
	// already running, piling up behind it would only re-scan the same
	// segments — skip instead of serializing tail latencies on tm.mu.
	if !tm.mu.TryLock() {
		return
	}
	defer tm.mu.Unlock()
	if tm.closed {
		return
	}

	tail := tm.rel.Tail()
	type candidate struct {
		si    int
		seg   *storage.Segment
		reads uint64
	}
	var resident int64
	var cands []candidate
	newest := -1 // the newest sealed segment, resident or not
	for si, seg := range tm.rel.Segments {
		b := seg.ResidentBytes()
		resident += b
		if seg == tail || seg.Rows == 0 {
			continue
		}
		newest = si
		if b > 0 {
			cands = append(cands, candidate{si: si, seg: seg, reads: seg.Reads()})
		}
	}
	if resident <= tm.budget {
		return
	}
	// Coldest first: fewest reads since the last adaptation phase, then
	// oldest (lowest index — append-ordered data ages front to back); the
	// newest sealed segment goes last.
	sort.Slice(cands, func(i, j int) bool {
		if (cands[i].si == newest) != (cands[j].si == newest) {
			return cands[j].si == newest
		}
		if cands[i].reads != cands[j].reads {
			return cands[i].reads < cands[j].reads
		}
		return cands[i].si < cands[j].si
	})

	// Rung 1 (encoded tier only): demote flat segments to encoded form.
	// Frees the flat arrays for the price of an encode pass — no disk
	// involved, and a later scan recovers the data by decoding in memory.
	if tm.encoded {
		for _, c := range cands {
			if resident <= tm.budget {
				return
			}
			before := c.seg.ResidentBytes()
			if c.seg.DemoteToEncoded() {
				tm.demotions.Add(1)
				resident -= before - c.seg.ResidentBytes()
			}
		}
		if resident <= tm.budget {
			return
		}
	}

	// Rung 2: spill to disk and unload.
	store, err := tm.ensureStore()
	if err != nil {
		// No spill directory, no eviction: count it so operators can see
		// the budget is not being enforced.
		tm.spillErrors.Add(1)
		return
	}
	for _, c := range cands {
		if resident <= tm.budget {
			break
		}
		b := c.seg.ResidentBytes()
		if b == 0 {
			continue // raced with nothing — spilled segments were filtered — but stay safe
		}
		ver := c.seg.Version()
		if tm.spilledV[c.seg] != ver {
			// No current spill file: write one before dropping the data,
			// holding the segment pinned so a concurrent scan cannot
			// observe a half-spilled state. The encoded-or-better pin
			// avoids decoding a demoted segment just to persist it —
			// WriteSegment works from the encodings either way.
			if _, err := c.seg.AcquireEncoded(); err != nil {
				continue
			}
			err := store.WriteSegment(tm.key(c.si), c.seg)
			c.seg.Release()
			if err != nil {
				// Cannot persist => must not evict; surfaced in TierStats
				// so a dead spill disk is diagnosable.
				tm.spillErrors.Add(1)
				continue
			}
			tm.spilledV[c.seg] = ver
			if fi, serr := os.Stat(store.Path(tm.key(c.si))); serr == nil {
				tm.spilledSize[c.seg] = fi.Size()
			}
			tm.spillWrites.Add(1)
		}
		if c.seg.Unload() {
			tm.evictions.Add(1)
			resident -= b
		}
	}
}

// stats snapshots the tier state.
func (tm *tierManager) stats() TierStats {
	var ts TierStats
	for _, seg := range tm.rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		ts.Faults += seg.Faults()
		ts.EncodedBytes += seg.EncodedBytes()
		switch b := seg.ResidentBytes(); {
		case seg.State() == storage.SegResident:
			ts.ResidentSegments++
			ts.ResidentBytes += b
		case b > 0:
			// Encoded rung proper: the compact form lives on the heap.
			ts.EncodedSegments++
			ts.ResidentBytes += b
		default:
			// Spilled, or encoded purely through an mmap of the spill file:
			// either way every byte is disk-backed and the heap holds
			// nothing, which is what "spilled" measures.
			ts.SpilledSegments++
			ts.SpilledBytes += seg.Bytes()
		}
	}
	tm.mu.Lock()
	for _, sz := range tm.spilledSize {
		ts.SpillFileBytes += sz
	}
	tm.mu.Unlock()
	ts.Evictions = tm.evictions.Load()
	ts.Demotions = tm.demotions.Load()
	ts.SpillWrites = tm.spillWrites.Load()
	ts.SpillErrors = tm.spillErrors.Load()
	ts.FaultedBytes = tm.faultedBytes.Load()
	return ts
}

// close deletes the relation's spill files (and the spill directory
// itself, when the manager created it) and drops the store. Spilled
// segment data is gone after close; the caller guarantees the engine is
// no longer serving queries.
func (tm *tierManager) close() {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.closed = true
	st := tm.store.Swap(nil)
	if st == nil {
		return // never spilled anything
	}
	for si, seg := range tm.rel.Segments {
		// Drop any mmap-backed encoding before unlinking its file: the
		// kernel would keep unlinked pages alive, but the mapping would
		// pin disk space invisibly until the last segment reference died.
		_ = seg.ReleaseMapping()
		_ = st.Remove(tm.key(si))
	}
	if tm.ownsDir {
		_ = os.RemoveAll(tm.dir)
	}
	tm.spilledV = make(map[*storage.Segment]uint64)
	tm.spilledSize = make(map[*storage.Segment]int64)
}

// TierStats reports the engine's tiered-storage counters; the zero value
// when no memory budget is configured. The snapshot is taken under the
// engine's read lock so the segment list is stable.
func (e *Engine) TierStats() TierStats {
	if e.tier == nil {
		return TierStats{}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tier.stats()
}

// SetSegmentHeat does nothing.
//
// Deprecated: cache heat is gone; kept until the benchmark stops calling it (ROADMAP D2 + P).
func (e *Engine) SetSegmentHeat(func() map[int]int) {}

// EnforceBudget runs one eviction pass immediately, instead of waiting for
// the next query or insert to trigger it. Tests and operational tooling
// use it to establish a known residency state; a no-op without a budget.
func (e *Engine) EnforceBudget() {
	if e.tier == nil {
		return
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.tier.enforce()
}

// Close releases the engine's tiered-storage resources: in-flight queries
// are waited out, then the relation's spill files are deleted (and the
// spill directory too, if the engine created it as a temp dir). Spilled
// segment data is unrecoverable afterwards, so the engine must not be
// used after Close. Engines without a memory budget hold no external
// resources and Close is a no-op.
func (e *Engine) Close() {
	if e.tier == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tier.close()
}
