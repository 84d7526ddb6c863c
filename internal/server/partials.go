package server

import (
	"strconv"
	"sync"
	"sync/atomic"

	"h2o/internal/core"
	"h2o/internal/exec"
)

// partialKey addresses a partials payload by (table, normalized query)
// only — deliberately *without* the touch fingerprint. The whole point of
// the payload is to survive fingerprint changes: on an admission miss the
// repair path looks the stale payload up by query identity, diffs its
// segment-version vector against the live relation, and rescans only the
// difference. The encoding reuses the result-cache key's injective shape
// (length-prefixed table, unambiguous remainder).
func partialKey(table, normQuery string) string {
	return strconv.Itoa(len(table)) + ":" + table + ":" + normQuery
}

// pentry is one cached partials payload. The PartialResult and its
// SegPartials are immutable once published: repairs build new payloads via
// exec.Repaired instead of mutating in place, so readers never race
// writers on the states themselves. last is the LRU tick of the most
// recent access, updated atomically on the read path.
type pentry struct {
	p     *exec.PartialResult
	bytes int64
	last  atomic.Uint64
}

// partialCache is the byte-budgeted store of per-segment partial
// aggregates, keyed by partialKey. Unlike the result cache it is bounded
// by *bytes*, not entries — payloads scale with segment count, so an
// entry cap would let a few wide relations blow the budget. A single
// mutex suffices: the cache is only touched on misses of repairable
// queries, each of which just paid (at least) a segment scan.
type partialCache struct {
	mu    sync.Mutex
	items map[string]*pentry
	ix    evictIndex
	bytes int64
	cap   int64
	tick  atomic.Uint64
}

func newPartialCache(capBytes int64) *partialCache {
	return &partialCache{items: make(map[string]*pentry), cap: capBytes}
}

// get returns the payload cached under key, or nil.
func (c *partialCache) get(key string) *exec.PartialResult {
	c.mu.Lock()
	e := c.items[key]
	c.mu.Unlock()
	if e == nil {
		return nil
	}
	e.last.Store(c.tick.Add(1))
	return e.p
}

// put installs (or replaces) the payload under key, then evicts
// least-recently-used payloads until the byte budget holds. A payload
// larger than the whole budget is not admitted at all — caching it would
// evict everything else for one entry that can never stay.
func (c *partialCache) put(key string, p *exec.PartialResult) {
	b := p.Bytes()
	if b > c.cap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old, replaced := c.items[key]
	if replaced {
		c.bytes -= old.bytes
	}
	e := &pentry{p: p, bytes: b}
	e.last.Store(c.tick.Add(1))
	c.items[key] = e
	c.bytes += b
	if !replaced {
		c.ix.push(key, e.last.Load())
	}
	for c.bytes > c.cap {
		victim := c.ix.pop(c.liveTick, key)
		if victim == "" {
			return
		}
		v := c.items[victim]
		c.bytes -= v.bytes
		delete(c.items, victim)
	}
}

// liveTick is the cache's evictIndex liveness probe; the caller holds mu.
func (c *partialCache) liveTick(key string) (uint64, bool) {
	e, ok := c.items[key]
	if !ok {
		return 0, false
	}
	return e.last.Load(), true
}

// mentry is one memoized admission fingerprint.
type mentry struct {
	version uint64
	fp      core.TouchFingerprint
	last    atomic.Uint64
}

// fpMemo memoizes admission-time fingerprints per (table, normalized
// query) at a specific relation version, cutting the O(segments ×
// predicate terms) zone-map walk to an O(1) version compare for hot query
// patterns. Soundness rests on two facts: the fingerprint is a pure
// function of (query, relation state), and relation versions are drawn
// from a process-wide monotone clock and never reused — so an entry is
// exact while the live relation still reports the version it was stored
// at, and a stale entry can never be matched again (its version cannot
// recur, even across table replacement). Invalidation is therefore free:
// any relation-version bump simply stops the entry from matching.
//
// The admission path must read the relation version *before* computing the
// fingerprint it stores: if a mutation lands between the two reads, the
// stored pair is (older version, newer fingerprint) — harmless, because
// the older version can never be observed again. The reverse order would
// store (newer version, older fingerprint) and serve a stale fingerprint.
type fpMemo struct {
	mu    sync.RWMutex
	items map[string]*mentry
	ix    evictIndex
	cap   int
	tick  atomic.Uint64
}

func newFpMemo(capacity int) *fpMemo {
	return &fpMemo{items: make(map[string]*mentry), cap: capacity}
}

// get returns the memoized fingerprint for key if it was stored at exactly
// version.
func (m *fpMemo) get(key string, version uint64) (core.TouchFingerprint, bool) {
	m.mu.RLock()
	e := m.items[key]
	var ver uint64
	var fp core.TouchFingerprint
	if e != nil {
		ver, fp = e.version, e.fp // field reads under the lock: put may update in place
	}
	m.mu.RUnlock()
	if e == nil || ver != version {
		return core.TouchFingerprint{}, false
	}
	e.last.Store(m.tick.Add(1))
	return fp, true
}

// put memoizes fp for key at version, evicting the least-recently-used
// entry past the capacity from the eviction index (O(log cap), as the
// result cache does; eviction only runs on memo misses, which also paid a
// full fingerprint walk).
func (m *fpMemo) put(key string, version uint64, fp core.TouchFingerprint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.items[key]; ok {
		e.version, e.fp = version, fp
		e.last.Store(m.tick.Add(1))
		return
	}
	e := &mentry{version: version, fp: fp}
	e.last.Store(m.tick.Add(1))
	m.items[key] = e
	m.ix.push(key, e.last.Load())
	for len(m.items) > m.cap {
		victim := m.ix.pop(m.liveTick, "")
		if victim == "" {
			return
		}
		delete(m.items, victim)
	}
}

// liveTick is the memo's evictIndex liveness probe; the caller holds mu.
func (m *fpMemo) liveTick(key string) (uint64, bool) {
	e, ok := m.items[key]
	if !ok {
		return 0, false
	}
	return e.last.Load(), true
}
