package server

import (
	"sync"

	"h2o/internal/exec"
)

// segmentHeat is the per-table count, per segment index, of the live
// cached artifacts that reference the segment: result-cache entries count
// the segments their execution read (ExecInfo.SegmentsTouched), partials
// payloads every segment they retain a partial for. Joins add nothing: a
// join result touches no segment and a join payload retains none here. The
// caches maintain it where entries come and go — admission, in-place
// republish, replacement and eviction — under the cache lock each of those
// points already holds, so at every quiescent point the counts equal a walk
// over every live entry (stale-fingerprint entries included: they stay live
// until the LRU recycles them). Lock order is cache lock -> mu; snapshot
// takes mu alone.
type segmentHeat struct {
	mu     sync.Mutex
	tables map[string][]int32
}

func newSegmentHeat() *segmentHeat {
	return &segmentHeat{tables: make(map[string][]int32)}
}

// addSegs adds d to the count of every listed segment of table.
func (h *segmentHeat) addSegs(table string, segs []int, d int32) {
	if len(segs) == 0 {
		return
	}
	top := 0
	for _, si := range segs {
		top = max(top, si)
	}
	h.mu.Lock()
	c := h.tables[table]
	if top >= len(c) {
		c = append(c, make([]int32, top+1-len(c))...)
		h.tables[table] = c
	}
	for _, si := range segs {
		c[si] += d
	}
	h.mu.Unlock()
}

// addPartial adds d to the count of every segment p retains a partial for.
// A join payload (non-nil Deps) adds nothing, as join result entries touch
// nothing: its segments span two relations, and only the probe side's are
// keyed in Segs.
func (h *segmentHeat) addPartial(table string, p *exec.PartialResult, d int32) {
	if p.Deps != nil {
		return
	}
	segs := make([]int, 0, len(p.Segs))
	for si := range p.Segs {
		segs = append(segs, si)
	}
	h.addSegs(table, segs, d)
}

// snapshot returns table's non-zero counts, in O(segments).
func (h *segmentHeat) snapshot(table string) map[int]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.tables[table]
	out := make(map[int]int, len(c))
	for si, n := range c {
		if n != 0 {
			out[si] = int(n)
		}
	}
	return out
}
