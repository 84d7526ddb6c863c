package server

import (
	"fmt"
	"sync"
	"testing"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
)

func res(v data.Value) *exec.Result {
	return &exec.Result{Cols: []string{"x"}, Rows: 1, Data: []data.Value{v}}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard, capacity 2: the oldest entry falls out.
	c := newResultCache(1, 2)
	c.put("a", res(1), core.ExecInfo{})
	c.put("b", res(2), core.ExecInfo{})
	if _, _, ok := c.get("a"); !ok { // touch "a": now "b" is oldest
		t.Fatal("a missing")
	}
	c.put("c", res(3), core.ExecInfo{})
	if _, _, ok := c.get("b"); ok {
		t.Fatal("LRU did not evict the least recently used entry")
	}
	if _, _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, _, ok := c.get("c"); !ok {
		t.Fatal("new entry missing")
	}
	if c.size() != 2 {
		t.Fatalf("size = %d, want 2", c.size())
	}
}

func TestCacheUpdateExistingKey(t *testing.T) {
	c := newResultCache(1, 2)
	c.put("a", res(1), core.ExecInfo{})
	c.put("a", res(9), core.ExecInfo{})
	got, _, ok := c.get("a")
	if !ok || got.At(0, 0) != 9 {
		t.Fatalf("update lost: ok=%v", ok)
	}
	if c.size() != 1 {
		t.Fatalf("size = %d, want 1", c.size())
	}
}

func TestCacheShardRounding(t *testing.T) {
	c := newResultCache(5, 100) // rounds up to 8 shards
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	// Tiny capacities still give each shard at least one slot.
	c2 := newResultCache(16, 4)
	for i := 0; i < 100; i++ {
		c2.put(fmt.Sprintf("k%d", i), res(data.Value(i)), core.ExecInfo{})
	}
	if c2.size() > 16 {
		t.Fatalf("size = %d exceeds per-shard caps", c2.size())
	}
}

func TestCacheKeySeparatesTableFingerprintQuery(t *testing.T) {
	fp1 := core.TouchFingerprint{Digest: 1, Segments: 1, MaxVersion: 1}
	fp2 := core.TouchFingerprint{Digest: 2, Segments: 1, MaxVersion: 2}
	keys := map[string]bool{
		cacheKey("t1", "select x", fp1): true,
		cacheKey("t1", "select x", fp2): true,
		cacheKey("t2", "select x", fp1): true,
		cacheKey("t1", "select y", fp1): true,
		// Delimiter abuse: a table name containing the separator must not
		// collide with a (table, query) split at a different point.
		cacheKey("t1:1", "select x", fp1):  true,
		cacheKey("t1", ":1:select x", fp1): true,
	}
	if len(keys) != 6 {
		t.Fatalf("cache keys collide: %v", keys)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := newResultCache(8, 256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%64)
				if i%2 == 0 {
					c.put(k, res(data.Value(i)), core.ExecInfo{})
				} else {
					c.get(k)
				}
			}
		}(w)
	}
	wg.Wait()
}
