package affinity

import (
	"strings"
	"testing"
	"testing/quick"

	"h2o/internal/data"
	"h2o/internal/query"
)

func info(sel, where []data.AttrID) query.Info {
	return query.Info{Select: data.SortedUnique(sel), Where: data.SortedUnique(where)}
}

func TestMatrixAccumulation(t *testing.T) {
	m := NewMatrix(5)
	m.Add([]data.AttrID{0, 2, 3}, 1)
	m.Add([]data.AttrID{0, 2}, 1)
	if m.Usage(0) != 2 || m.Usage(2) != 2 || m.Usage(3) != 1 || m.Usage(4) != 0 {
		t.Fatalf("usage wrong: %s", m)
	}
	if m.At(0, 2) != 2 || m.At(2, 0) != 2 {
		t.Fatal("co-access must be symmetric")
	}
	if m.At(0, 3) != 1 || m.At(2, 3) != 1 {
		t.Fatal("pairwise counts wrong")
	}
	if m.At(1, 1) != 0 {
		t.Fatal("untouched attribute has non-zero usage")
	}
}

func TestMatrixSymmetryProperty(t *testing.T) {
	f := func(sets [][]uint8) bool {
		m := NewMatrix(16)
		for _, s := range sets {
			attrs := make([]data.AttrID, 0, len(s))
			for _, v := range s {
				attrs = append(attrs, data.AttrID(v%16))
			}
			m.Add(data.SortedUnique(attrs), 1)
		}
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				if m.At(i, j) != m.At(j, i) {
					return false
				}
				// Co-access never exceeds either attribute's usage.
				if i != j && (m.At(i, j) > m.Usage(i) || m.At(i, j) > m.Usage(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHotOrdering(t *testing.T) {
	m := NewMatrix(6)
	m.Add([]data.AttrID{1}, 1)
	m.Add([]data.AttrID{1}, 1)
	m.Add([]data.AttrID{3}, 1)
	hot := m.Hot()
	if len(hot) != 2 || hot[0] != 1 || hot[1] != 3 {
		t.Fatalf("Hot = %v", hot)
	}
}

func TestWindowGrowsWhileStable(t *testing.T) {
	w := NewWindow(Config{InitialSize: 10, MinSize: 2, MaxSize: 30, NoveltyOverlap: 0.5, Dynamic: true})
	stable := info([]data.AttrID{1, 2, 3}, []data.AttrID{0})
	// Drive a full stable adaptation period: growth happens at the boundary
	// (MarkAdapted), so a stable stream adapts progressively less often.
	for i := 0; i < 10; i++ {
		obs := w.Observe(stable)
		if obs.Novel {
			t.Fatal("repeated pattern must not be novel")
		}
		if obs.Due {
			w.MarkAdapted()
		}
	}
	if w.Size() <= 10 {
		t.Fatalf("window should grow across a stable period, got %d", w.Size())
	}
}

func TestWindowShrinksOnShift(t *testing.T) {
	w := NewWindow(DefaultConfig())
	for i := 0; i < 10; i++ {
		w.Observe(info([]data.AttrID{1, 2, 3}, nil))
	}
	before := w.Size()
	obs := w.Observe(info([]data.AttrID{30, 31, 32}, nil)) // disjoint attributes
	if !obs.Novel {
		t.Fatal("disjoint access pattern must be novel")
	}
	if obs.WindowSize >= before {
		t.Fatalf("window should shrink on shift: %d -> %d", before, obs.WindowSize)
	}
}

func TestWindowRespectsBounds(t *testing.T) {
	cfg := Config{InitialSize: 8, MinSize: 4, MaxSize: 12, NoveltyOverlap: 0.9, Dynamic: true}
	w := NewWindow(cfg)
	// Hammer with novel patterns: size must floor at MinSize.
	for i := 0; i < 20; i++ {
		w.Observe(info([]data.AttrID{i * 4, i*4 + 1}, nil))
	}
	if w.Size() < cfg.MinSize {
		t.Fatalf("size %d below MinSize", w.Size())
	}
	// Stabilize through several adaptation periods: size must cap at
	// MaxSize.
	stable := info([]data.AttrID{1, 2}, nil)
	for i := 0; i < 80; i++ {
		if w.Observe(stable).Due {
			w.MarkAdapted()
		}
	}
	if w.Size() > cfg.MaxSize {
		t.Fatalf("size %d above MaxSize", w.Size())
	}
	if w.Size() != cfg.MaxSize {
		t.Fatalf("size %d should have reached MaxSize %d", w.Size(), cfg.MaxSize)
	}
}

func TestStaticWindowNeverResizes(t *testing.T) {
	w := NewWindow(Config{InitialSize: 30, MinSize: 2, MaxSize: 60, NoveltyOverlap: 0.5, Dynamic: false})
	for i := 0; i < 25; i++ {
		w.Observe(info([]data.AttrID{i, i + 1}, nil))
	}
	if w.Size() != 30 {
		t.Fatalf("static window resized to %d", w.Size())
	}
}

func TestFirstQueryIsNotNovel(t *testing.T) {
	w := NewWindow(DefaultConfig())
	if obs := w.Observe(info([]data.AttrID{0}, nil)); obs.Novel {
		t.Fatal("first query has no history to be novel against")
	}
}

func TestAdaptationDue(t *testing.T) {
	w := NewWindow(Config{InitialSize: 5, MinSize: 2, MaxSize: 10, NoveltyOverlap: 0.5, Dynamic: false})
	stable := info([]data.AttrID{0, 1}, nil)
	var due bool
	for i := 0; i < 5; i++ {
		due = w.Observe(stable).Due
	}
	if !due {
		t.Fatal("adaptation should be due after window-size queries")
	}
	w.MarkAdapted()
	if w.SinceAdaptation() != 0 {
		t.Fatal("MarkAdapted should reset the counter")
	}
	if w.Observe(stable).Due {
		t.Fatal("adaptation due immediately after reset")
	}
}

func TestRecent(t *testing.T) {
	w := NewWindow(Config{InitialSize: 3, MinSize: 2, MaxSize: 3, NoveltyOverlap: 0.5, Dynamic: false})
	w.Observe(info([]data.AttrID{0, 1}, []data.AttrID{5}))
	w.Observe(info([]data.AttrID{0, 1}, []data.AttrID{5}))
	w.Observe(info([]data.AttrID{2, 3}, nil))
	w.Observe(info([]data.AttrID{2, 3}, nil)) // evicts the first
	recent := w.Recent()
	if len(recent) != 3 {
		t.Fatalf("Recent len = %d, want 3", len(recent))
	}
}

func TestMatrixString(t *testing.T) {
	m := NewMatrix(3)
	m.Add([]data.AttrID{0, 2}, 1)
	s := m.String()
	if !strings.Contains(s, "(0,2)=1") || !strings.Contains(s, "(0,0)=1") {
		t.Fatalf("String = %q", s)
	}
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
}

func TestWindowConfigNormalization(t *testing.T) {
	// Zero/invalid config fields fall back to sane values.
	w := NewWindow(Config{})
	if w.Size() <= 0 {
		t.Fatal("zero config produced a non-positive window")
	}
	w2 := NewWindow(Config{InitialSize: 50, MaxSize: 10})
	if w2.Size() != 50 {
		t.Fatalf("initial size = %d", w2.Size())
	}
	// MaxSize must have been raised to at least InitialSize.
	for i := 0; i < 200; i++ {
		if w2.Observe(info([]data.AttrID{1}, nil)).Due {
			w2.MarkAdapted()
		}
	}
	if w2.Size() < 50 {
		t.Fatalf("size shrank below initial without novelty: %d", w2.Size())
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []data.AttrID
		want float64
	}{
		{nil, nil, 1},
		{[]data.AttrID{1}, nil, 0},
		{[]data.AttrID{1, 2}, []data.AttrID{1, 2}, 1},
		{[]data.AttrID{1, 2}, []data.AttrID{2, 3}, 1.0 / 3.0},
	}
	for _, c := range cases {
		if got := jaccard(c.a, c.b); got != c.want {
			t.Errorf("jaccard(%v,%v) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}
