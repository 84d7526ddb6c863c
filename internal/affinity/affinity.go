// Package affinity implements H2O's workload monitoring (paper §3.2): a
// dynamic window of recent queries, which the advisor reads, plus the
// workload-shift detector that shrinks the window when new access patterns
// appear and grows it while the workload is stable. Matrix is the paper's
// attribute-affinity measure over a set of queries.
package affinity

import (
	"fmt"
	"strings"

	"h2o/internal/data"
	"h2o/internal/query"
)

// Matrix is a dense attribute-affinity matrix. Off-diagonal entry (i, j)
// counts how often attributes i and j were accessed together in the same
// clause; diagonal entry (i, i) counts accesses of attribute i. This is the
// classic Navathe et al. affinity measure the paper adopts [38].
type Matrix struct {
	n int
	m []float64
}

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) *Matrix { return &Matrix{n: n, m: make([]float64, n*n)} }

// N returns the matrix dimension.
func (mx *Matrix) N() int { return mx.n }

// At returns entry (i, j).
func (mx *Matrix) At(i, j int) float64 { return mx.m[i*mx.n+j] }

// Add records one co-access of every attribute pair in attrs with weight w.
// The diagonal accumulates single-attribute usage frequency.
func (mx *Matrix) Add(attrs []data.AttrID, w float64) {
	for _, a := range attrs {
		mx.m[a*mx.n+a] += w
		for _, b := range attrs {
			if a != b {
				mx.m[a*mx.n+b] += w
			}
		}
	}
}

// Usage returns the access frequency of attribute a (the diagonal entry).
func (mx *Matrix) Usage(a data.AttrID) float64 { return mx.m[a*mx.n+a] }

// Hot returns the attributes with non-zero usage, most frequent first
// (insertion-order stable for ties).
func (mx *Matrix) Hot() []data.AttrID {
	var out []data.AttrID
	for a := 0; a < mx.n; a++ {
		if mx.Usage(a) > 0 {
			out = append(out, a)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && mx.Usage(out[j]) > mx.Usage(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// String renders the non-zero upper triangle, for debugging.
func (mx *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < mx.n; i++ {
		for j := i; j < mx.n; j++ {
			if v := mx.At(i, j); v != 0 {
				fmt.Fprintf(&b, "(%d,%d)=%g ", i, j, v)
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// Config controls the dynamic monitoring window.
type Config struct {
	// InitialSize is the starting window size N (paper §4.1 uses 20; Fig. 9
	// uses 30).
	InitialSize int
	// MinSize and MaxSize bound the dynamic window.
	MinSize, MaxSize int
	// NoveltyOverlap is the Jaccard-similarity threshold below which a query
	// access pattern counts as "new": patterns whose attribute set overlaps
	// less than this with every recorded pattern signal a workload shift.
	NoveltyOverlap float64
	// Dynamic enables window resizing; when false the window behaves like
	// the paper's "static window" baseline (Fig. 9).
	Dynamic bool
}

// DefaultConfig mirrors the paper's settings.
func DefaultConfig() Config {
	return Config{
		InitialSize:    20,
		MinSize:        4,
		MaxSize:        100,
		NoveltyOverlap: 0.5,
		Dynamic:        true,
	}
}

// Window is the dynamic monitoring window: it retains the most recent
// queries' access patterns and detects workload shifts.
type Window struct {
	cfg Config

	size    int // current dynamic window size N
	history []query.Info
	// patterns[i] is history[i].Pattern(), rendered once when observed.
	patterns []string
	// sinceAdapt counts queries observed since the last adaptation phase.
	sinceAdapt int
	// novelSinceAdapt records whether a shift was detected in the current
	// adaptation period; it suppresses growth at the next boundary.
	novelSinceAdapt bool
}

// NewWindow creates a monitoring window.
func NewWindow(cfg Config) *Window {
	if cfg.InitialSize <= 0 {
		cfg.InitialSize = DefaultConfig().InitialSize
	}
	if cfg.MinSize <= 0 {
		cfg.MinSize = 2
	}
	if cfg.MaxSize < cfg.InitialSize {
		cfg.MaxSize = cfg.InitialSize
	}
	if cfg.NoveltyOverlap <= 0 {
		cfg.NoveltyOverlap = DefaultConfig().NoveltyOverlap
	}
	return &Window{cfg: cfg, size: cfg.InitialSize}
}

// Size returns the current (dynamic) window size.
func (w *Window) Size() int { return w.size }

// SinceAdaptation returns the number of queries observed since the last
// adaptation phase.
func (w *Window) SinceAdaptation() int { return w.sinceAdapt }

// Observation reports what the monitor concluded about one query.
type Observation struct {
	Novel      bool // access pattern not seen (or barely seen) in the window
	WindowSize int  // window size after the observation
	Due        bool // an adaptation phase is due
}

// Observe records one query and updates the dynamic window. Following §3.2:
// a new or low-frequency access pattern shrinks the window *immediately*
// ("the adaptation window decreases to progressively orchestrate a new
// adaptation phase"), making the next adaptation due sooner; growth for
// stable workloads happens at adaptation boundaries (see MarkAdapted), so a
// stable stream still adapts periodically, just less and less often.
func (w *Window) Observe(info query.Info) Observation {
	pat := info.Pattern()
	novel := w.isNovel(info, pat)

	w.history = append(w.history, info)
	w.patterns = append(w.patterns, pat)
	if over := len(w.history) - w.cfg.MaxSize; over > 0 {
		w.history = w.history[over:]
		w.patterns = w.patterns[over:]
	}
	w.sinceAdapt++

	if w.cfg.Dynamic && novel {
		w.novelSinceAdapt = true
		w.size /= 2
		if w.size < w.cfg.MinSize {
			w.size = w.cfg.MinSize
		}
	}
	return Observation{Novel: novel, WindowSize: w.size, Due: w.sinceAdapt >= w.size}
}

// isNovel reports whether info's access pattern pat is new or rare
// relative to the retained history: no exact-pattern repetition and low
// attribute-set overlap with every retained query.
func (w *Window) isNovel(info query.Info, pat string) bool {
	if len(w.history) == 0 {
		return false // nothing to compare against yet
	}
	attrs := info.All()
	bestOverlap := 0.0
	for i, h := range w.history {
		if w.patterns[i] == pat {
			return false
		}
		if o := jaccard(attrs, h.All()); o > bestOverlap {
			bestOverlap = o
		}
	}
	return bestOverlap < w.cfg.NoveltyOverlap
}

// jaccard computes |a∩b| / |a∪b| for sorted attribute sets.
func jaccard(a, b []data.AttrID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := data.IntersectCount(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// MarkAdapted resets the adaptation counter; the engine calls it after
// running an adaptation phase. If the period that just ended saw no workload
// shift, the window grows ("when the workload is stable, H2O increases the
// adaptation window"), making adaptation progressively less frequent.
func (w *Window) MarkAdapted() {
	w.sinceAdapt = 0
	if w.cfg.Dynamic && !w.novelSinceAdapt {
		w.size += w.size/2 + 1
		if w.size > w.cfg.MaxSize {
			w.size = w.cfg.MaxSize
		}
	}
	w.novelSinceAdapt = false
}

// Recent returns the queries inside the current window (at most Size(),
// newest last). The advisor evaluates candidate layouts against this slice.
func (w *Window) Recent() []query.Info {
	n := w.size
	if n > len(w.history) {
		n = len(w.history)
	}
	return w.history[len(w.history)-n:]
}
