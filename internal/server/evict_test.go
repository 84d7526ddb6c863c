package server

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
)

// mapLive adapts a plain map to an evictIndex liveness probe.
func mapLive(m map[string]uint64) func(string) (uint64, bool) {
	return func(k string) (uint64, bool) {
		t, ok := m[k]
		return t, ok
	}
}

// TestEvictIndexLRUOrder: with ticks at rest, pop returns keys in strict
// ascending tick order.
func TestEvictIndexLRUOrder(t *testing.T) {
	live := map[string]uint64{}
	var ix evictIndex
	perm := rand.New(rand.NewSource(1)).Perm(100)
	for i, p := range perm {
		k := "k" + strconv.Itoa(i)
		live[k] = uint64(p + 1)
		ix.push(k, uint64(p+1))
	}
	for want := 1; want <= 100; want++ {
		k := ix.pop(mapLive(live), "")
		if k == "" {
			t.Fatalf("pop %d: empty", want)
		}
		if got := live[k]; got != uint64(want) {
			t.Fatalf("pop %d returned key with tick %d", want, got)
		}
		delete(live, k)
	}
	if k := ix.pop(mapLive(live), ""); k != "" {
		t.Fatalf("pop on drained index = %q, want empty", k)
	}
}

// TestEvictIndexStaleTicks: hits bump ticks without touching the heap; pop
// must still return the key whose *live* tick is smallest.
func TestEvictIndexStaleTicks(t *testing.T) {
	live := map[string]uint64{"a": 1, "b": 2, "c": 3}
	var ix evictIndex
	for k, tick := range live {
		ix.push(k, tick)
	}
	// "a" was hit twice since insertion; "b" once. "c" is now coldest.
	live["a"] = 10
	live["b"] = 5
	if k := ix.pop(mapLive(live), ""); k != "c" {
		t.Fatalf("pop = %q, want c (live coldest)", k)
	}
	delete(live, "c")
	if k := ix.pop(mapLive(live), ""); k != "b" {
		t.Fatalf("pop = %q, want b", k)
	}
}

// TestEvictIndexSkipAndDead: the skip key is never returned (and survives
// the pop for later rounds); dead keys are discarded silently.
func TestEvictIndexSkipAndDead(t *testing.T) {
	live := map[string]uint64{"keep": 1, "dead": 2, "victim": 3}
	var ix evictIndex
	for k, tick := range live {
		ix.push(k, tick)
	}
	delete(live, "dead")
	if k := ix.pop(mapLive(live), "keep"); k != "victim" {
		t.Fatalf("pop = %q, want victim (keep skipped, dead discarded)", k)
	}
	delete(live, "victim")
	// Nothing but the skip key remains.
	if k := ix.pop(mapLive(live), "keep"); k != "" {
		t.Fatalf("pop = %q, want empty (only skip left)", k)
	}
	// The held-aside skip pair must have been restored, not lost.
	if k := ix.pop(mapLive(live), ""); k != "keep" {
		t.Fatalf("pop = %q, want keep (skip pair restored)", k)
	}
}

// TestShardEvictionIsLRU: the result cache evicts its least-recently-used
// entry, counting lock-free get bumps as recency.
func TestShardEvictionIsLRU(t *testing.T) {
	s := &shard{items: make(map[string]*entry), cap: 3}
	res := &exec.Result{}
	s.put("a", res, core.ExecInfo{})
	s.put("b", res, core.ExecInfo{})
	s.put("c", res, core.ExecInfo{})
	// Touch "a": "b" becomes the LRU entry.
	if _, _, ok := s.get("a"); !ok {
		t.Fatal("get a missed")
	}
	s.put("d", res, core.ExecInfo{})
	if _, ok := s.items["b"]; ok {
		t.Fatalf("b survived; items=%d", len(s.items))
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := s.items[k]; !ok {
			t.Fatalf("%s was evicted, want b only", k)
		}
	}
}

// TestPartialCacheByteBudgetIsLRU: the partials cache evicts its
// least-recently-used payloads until its byte total fits the budget, and
// never admits a payload larger than the whole budget.
func TestPartialCacheByteBudgetIsLRU(t *testing.T) {
	payload := func(segs int) *exec.PartialResult {
		p := &exec.PartialResult{Ops: []expr.AggOp{expr.AggSum}, Segs: map[int]*exec.SegPartial{}}
		for si := 0; si < segs; si++ {
			p.Segs[si] = &exec.SegPartial{Version: 1}
		}
		return p
	}
	one := payload(4).Bytes()
	c := newPartialCache(3 * one)
	c.put("a", payload(4))
	c.put("b", payload(4))
	c.put("c", payload(4))
	// Touch "a": "b" becomes the LRU payload.
	if c.get("a") == nil {
		t.Fatal("get a missed")
	}
	c.put("d", payload(4))
	if c.get("b") != nil {
		t.Fatal("b survived the byte budget")
	}
	for _, k := range []string{"a", "c", "d"} {
		if c.get(k) == nil {
			t.Fatalf("%s was evicted, want b only", k)
		}
	}
	// Two payloads' worth of segments evict two more.
	c.put("e", payload(8))
	if len(c.items) != 2 || c.bytes > c.cap {
		t.Fatalf("%d payloads, %d bytes over a %d-byte budget", len(c.items), c.bytes, c.cap)
	}
	c.put("huge", payload(16))
	if c.get("huge") != nil || len(c.items) != 2 {
		t.Fatalf("oversized payload admitted: %d payloads", len(c.items))
	}
}

// errExecBackend injects an execution-time failure for queries carrying
// the marker limit, leaving admission (fingerprint, version) intact — the
// error then surfaces through the worker's outcome channel, the path that
// must land it in the Errors bucket.
type errExecBackend struct {
	*engineBackend
}

func (b errExecBackend) Exec(q *query.Query) (*exec.Result, core.ExecInfo, error) {
	if q.Limit == 7 {
		return nil, core.ExecInfo{}, fmt.Errorf("injected execution failure")
	}
	return b.engineBackend.Exec(q)
}

// TestStatsInvariant pins the outcome bucketing law: at quiescence every
// submitted query is in exactly one of CacheHits, CacheMisses, Canceled or
// Errors.
func TestStatsInvariant(t *testing.T) {
	b := newSegmentedBackend(t, 1024, 256, frozenOptions())
	s := New(errExecBackend{b}, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	agg := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, nil)

	// Hit + miss traffic.
	for i := 0; i < 5; i++ {
		if _, _, err := s.Query(ctx, agg); err != nil {
			t.Fatal(err)
		}
	}
	// Canceled before admission.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := s.Query(cctx, agg); err == nil {
		t.Fatal("want cancellation error")
	}
	// Admission-time error: the fingerprint lookup fails on an unknown
	// table before the query is ever queued.
	if _, _, err := s.Query(ctx, query.Aggregation("S", expr.AggSum, []data.AttrID{1}, nil)); err == nil {
		t.Fatal("want unknown-table error")
	}
	// Worker-time error: admission succeeds, execution fails — the error
	// comes back through the outcome channel.
	bad := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, nil)
	bad.Limit = 7
	if _, _, err := s.Query(ctx, bad); err == nil {
		t.Fatal("want injected execution error")
	}
	// Insert between repeats so the second agg query misses again.
	if err := b.e.Insert([][]data.Value{{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(ctx, agg); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Submitted != st.CacheHits+st.CacheMisses+st.Canceled+st.Errors {
		t.Fatalf("invariant broken: submitted=%d hits=%d misses=%d canceled=%d errors=%d",
			st.Submitted, st.CacheHits, st.CacheMisses, st.Canceled, st.Errors)
	}
	if st.Canceled == 0 || st.Errors == 0 || st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("every bucket should be populated: %+v", st)
	}
}

// TestStatsInvariantClosed: submissions refused by a closed server land in
// Errors, keeping the invariant.
func TestStatsInvariantClosed(t *testing.T) {
	b := newSegmentedBackend(t, 512, 256, frozenOptions())
	s := New(b, Config{Workers: 1})
	s.Close()
	if _, _, err := s.Query(context.Background(), query.Aggregation("R", expr.AggSum, []data.AttrID{1}, nil)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	st := s.Stats()
	if st.Submitted != st.CacheHits+st.CacheMisses+st.Canceled+st.Errors {
		t.Fatalf("invariant broken after close: %+v", st)
	}
	if st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}
}

// BenchmarkCacheEviction drives the result cache entirely through its
// eviction path: a single-shard cache far smaller than the key space, so
// every put past warmup evicts. This is the workload where the heap-backed
// eviction index replaced an O(n) full-map scan per insert.
func BenchmarkCacheEviction(b *testing.B) {
	const cap = 1024
	keys := make([]string, 4*cap)
	for i := range keys {
		keys[i] = fmt.Sprintf("1:R:%032d:q", i)
	}
	c := newResultCache(1, cap)
	res := &exec.Result{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.put(keys[i%len(keys)], res, core.ExecInfo{})
	}
}

// BenchmarkCacheEvictionWithHits mixes hit traffic (lock-free tick bumps
// that go stale in the heap) into the eviction-heavy workload, exercising
// the lazy reconciliation path.
func BenchmarkCacheEvictionWithHits(b *testing.B) {
	const cap = 1024
	keys := make([]string, 4*cap)
	for i := range keys {
		keys[i] = fmt.Sprintf("1:R:%032d:q", i)
	}
	c := newResultCache(1, cap)
	res := &exec.Result{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		c.put(k, res, core.ExecInfo{})
		c.get(k)
		c.get(keys[(i*7)%len(keys)])
	}
}
