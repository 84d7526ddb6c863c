package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
)

// walkHeat is the reference the incremental counters must equal: a full
// walk over every live result-cache entry and partials payload whose key
// names table, counting each entry's touched segments and each payload's
// retained segments. A join payload — its key's normalized query carries
// a join clause — counts nothing.
func walkHeat(s *Server, table string) map[int]int {
	heat := make(map[int]int)
	prefix := strconv.Itoa(len(table)) + ":" + table + ":"
	if s.cache != nil {
		for _, sh := range s.cache.shards {
			sh.mu.RLock()
			for k, e := range sh.items {
				if !strings.HasPrefix(k, prefix) {
					continue
				}
				for _, si := range e.info.SegmentsTouched {
					heat[si]++
				}
			}
			sh.mu.RUnlock()
		}
	}
	if s.partials != nil {
		s.partials.mu.Lock()
		for k, e := range s.partials.items {
			if !strings.HasPrefix(k, prefix) || strings.Contains(k, " join ") {
				continue
			}
			for si := range e.p.Versions() {
				heat[si]++
			}
		}
		s.partials.mu.Unlock()
	}
	return heat
}

// checkHeat fails unless SegmentHeat equals the full walk for every table.
func checkHeat(t *testing.T, s *Server, step string, tables ...string) {
	t.Helper()
	for _, tb := range tables {
		got, want := s.SegmentHeat(tb), walkHeat(s, tb)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: table %q heat %v, full walk %v", step, tb, got, want)
		}
	}
}

// randomSegs returns a sorted random subset of [0, n), possibly empty.
func randomSegs(rng *rand.Rand, n int) []int {
	var segs []int
	for si := 0; si < n; si++ {
		if rng.Intn(3) == 0 {
			segs = append(segs, si)
		}
	}
	sort.Ints(segs)
	return segs
}

// TestSegmentHeatMatchesWalk drives the two caches directly with a seeded
// random mix — admissions, in-place republishes under a different touch
// set, partials replacements, payloads over the byte budget, join payloads
// (probe partials plus build dependencies, which add no heat), and the LRU
// and byte-budget evictions small capacities force — over two tables whose
// names are prefixes of each other. After every step the incremental
// counters must equal the full walk.
func TestSegmentHeatMatchesWalk(t *testing.T) {
	const segs = 24
	tables := []string{"R", "RR", "S"} // S is never cached
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// 2 shards x 3 entries; a payload costs 112 bytes per segment,
			// so the budget holds ~13 segments and larger payloads are
			// never admitted.
			s := New(&stubBackend{}, Config{Workers: 1, CacheShards: 2, CacheEntries: 6, PartialCacheBytes: 1500})
			defer s.Close()
			res := &exec.Result{Cols: []string{"x"}, Rows: 1, Data: []data.Value{1}}
			for step := 0; step < 600; step++ {
				table := tables[rng.Intn(2)]
				norm := "q" + strconv.Itoa(rng.Intn(5))
				var what string
				if rng.Intn(2) == 0 {
					// Few distinct digests, so the same key recurs and
					// republishes in place with a new touch set.
					fp := core.TouchFingerprint{Digest: uint64(rng.Intn(3) + 1), Segments: 1, MaxVersion: 1}
					info := core.ExecInfo{SegmentsTouched: randomSegs(rng, segs)}
					s.cache.put(table, cacheKey(table, norm, fp), res, info)
					what = fmt.Sprintf("result put %s/%s touched %v", table, norm, info.SegmentsTouched)
				} else {
					p := &exec.PartialResult{Ops: []expr.AggOp{expr.AggSum}, Segs: map[int]*exec.SegPartial{}}
					for _, si := range randomSegs(rng, segs) {
						p.Segs[si] = &exec.SegPartial{Version: 1}
					}
					if rng.Intn(3) == 0 {
						// A join payload: the same key space, but the
						// normalized query names the build table, and the
						// payload records the build side's segments.
						norm += " join S"
						p.Deps = map[int]uint64{}
						for _, si := range randomSegs(rng, 4) {
							p.Deps[si] = 1
						}
					}
					s.partials.put(table, partialKey(table, norm), p)
					what = fmt.Sprintf("partials put %s/%s over %d segments (%d bytes)", table, norm, len(p.Segs), p.Bytes())
				}
				checkHeat(t, s, fmt.Sprintf("step %d (%s)", step, what), tables...)
			}
			if s.partials.evicted.Load() == 0 {
				t.Fatal("byte budget never evicted a payload")
			}
		})
	}
}

// TestSegmentHeatMatchesWalkServing is the same property through the real
// serving path over an engine: full scans, selective repairable aggregates
// (partials payloads, repairs, republishes) and projections interleaved
// with tail inserts that strand and re-admit entries, under capacities
// small enough that both caches evict.
func TestSegmentHeatMatchesWalkServing(t *testing.T) {
	const segCap, segs = 128, 8
	b := newSegmentedBackend(t, segs*segCap, segCap, frozenOptions())
	s := New(b, Config{Workers: 1, CacheShards: 1, CacheEntries: 4, PartialCacheBytes: 2000})
	defer s.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	next := data.Value(segs * segCap)
	for step := 0; step < 300; step++ {
		lo := data.Value(rng.Intn(int(next)))
		var q *query.Query
		switch rng.Intn(4) {
		case 0:
			q = query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
		case 1:
			q = query.Aggregation("R", expr.AggMax, []data.AttrID{1}, query.PredGt(0, lo))
		case 2:
			q = query.Projection("R", []data.AttrID{1}, query.PredGt(0, next-data.Value(rng.Intn(300))))
		default:
			if err := b.e.Insert([][]data.Value{{next, 1, 2, 3}}); err != nil {
				t.Fatal(err)
			}
			next++
			checkHeat(t, s, fmt.Sprintf("step %d (insert)", step), "R", "RR")
			continue
		}
		if _, _, err := s.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
		checkHeat(t, s, fmt.Sprintf("step %d (%s)", step, q), "R", "RR")
	}
	if st := s.Stats(); st.Repaired == 0 {
		t.Fatalf("mix never repaired: %+v", st)
	}
}
