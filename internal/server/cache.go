package server

import (
	"strconv"
	"sync"
	"sync/atomic"

	"h2o/internal/core"
	"h2o/internal/exec"
)

// cacheKey builds the composite cache key. The query text comes from
// query.Query.String(), which renders the parsed logical query in canonical
// form — two SQL strings differing only in whitespace or keyword case
// normalize to the same key. The touch fingerprint — the digest of the
// segments the query may read and their versions — is baked into the key,
// so a mutation of any candidate segment strands every older entry for the
// (table, query) pair, while mutations confined to segments the query never
// reads leave its entries addressable.
//
// The encoding is injective: the table name is length-prefixed (it is the
// only component that could contain the delimiters), the fingerprint
// renders to a fixed colon-free format, and the query text is the
// unambiguous remainder. FuzzCacheKey holds this property under arbitrary
// inputs.
func cacheKey(table, normQuery string, fp core.TouchFingerprint) string {
	return strconv.Itoa(len(table)) + ":" + table + ":" + fp.Key() + ":" + normQuery
}

// entry is one cached result. The Result pointer is shared between the
// cache and every client that hits it: results are treated as immutable
// once published (every execution strategy materializes a fresh block).
// last is the shard tick of the most recent access; hits update it with an
// atomic store so the hot read path never takes the write lock.
type entry struct {
	res  *exec.Result
	info core.ExecInfo
	last atomic.Uint64
}

// shard is one lock domain of the cache. Lookups take the read lock and
// bump the entry's access tick atomically — many clients replaying the same
// hot query proceed in parallel. Only inserts take the write lock; an
// overflowing insert picks its LRU victim from the shard's eviction index
// in O(log cap) (see evictIndex for how lock-free tick bumps reconcile).
type shard struct {
	mu    sync.RWMutex
	items map[string]*entry
	ix    evictIndex
	cap   int
	tick  atomic.Uint64
}

func (s *shard) get(key string) (*exec.Result, core.ExecInfo, bool) {
	s.mu.RLock()
	e := s.items[key]
	var res *exec.Result
	var info core.ExecInfo
	if e != nil {
		res, info = e.res, e.info // field reads under the lock: put may update in place
	}
	s.mu.RUnlock()
	if e == nil {
		return nil, core.ExecInfo{}, false
	}
	e.last.Store(s.tick.Add(1))
	return res, info, true
}

// put caches res under key.
func (s *shard) put(key string, res *exec.Result, info core.ExecInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[key]; ok {
		e.res, e.info = res, info
		e.last.Store(s.tick.Add(1))
		return
	}
	e := &entry{res: res, info: info}
	e.last.Store(s.tick.Add(1))
	s.items[key] = e
	s.ix.push(key, e.last.Load())
	for len(s.items) > s.cap {
		victim := s.ix.pop(s.liveTick, "")
		if victim == "" {
			return
		}
		delete(s.items, victim)
	}
}

// liveTick is the shard's evictIndex liveness probe; the caller holds mu.
func (s *shard) liveTick(key string) (uint64, bool) {
	e, ok := s.items[key]
	if !ok {
		return 0, false
	}
	return e.last.Load(), true
}

func (s *shard) len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.items)
}

// resultCache is the sharded LRU. Capacity is divided evenly across shards;
// each shard evicts independently, which approximates global LRU closely
// enough at serving-cache sizes while keeping hot lookups read-locked and
// inserts O(1) amortized under a per-shard lock.
type resultCache struct {
	shards []*shard
	mask   uint32
}

// newResultCache builds a cache with the given shard count (rounded up to a
// power of two) and total entry capacity.
func newResultCache(shards, capacity int) *resultCache {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &resultCache{shards: make([]*shard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i] = &shard{items: make(map[string]*entry), cap: perShard}
	}
	return c
}

// fnv32a hashes the key for shard selection.
func fnv32a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

func (c *resultCache) shardFor(key string) *shard {
	return c.shards[fnv32a(key)&c.mask]
}

func (c *resultCache) get(key string) (*exec.Result, core.ExecInfo, bool) {
	return c.shardFor(key).get(key)
}

func (c *resultCache) put(key string, res *exec.Result, info core.ExecInfo) {
	c.shardFor(key).put(key, res, info)
}

// size returns the current number of cached entries across all shards.
func (c *resultCache) size() int {
	n := 0
	for _, s := range c.shards {
		n += s.len()
	}
	return n
}
