package core

import (
	"errors"
	"testing"

	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// TestRunPaths pins what Engine.run reports on each way a query reaches
// exec.Exec: the encoded fast path (served and declined), the parallel
// fused scan, the generic fallback and a static mode. Each case checks the
// answer against the naive reference, the reported strategy, the touch
// accounting, the fingerprint and the GenericFallback counter.
func TestRunPaths(t *testing.T) {
	const rows, segCap = 4_000, 250
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), rows, 31)

	// withGroup is a column-major relation whose every segment also holds
	// a stitched group over attrs.
	withGroup := func(attrs []data.AttrID) *storage.Relation {
		rel := storage.BuildColumnMajorSeg(tb, segCap)
		for _, seg := range rel.Segments {
			g, err := storage.StitchSeg(seg, attrs)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.AddGroup(g); err != nil {
				t.Fatal(err)
			}
		}
		return rel
	}
	frozen := func(mut func(*Options)) Options {
		opts := DefaultOptions()
		opts.Mode = ModeFrozen
		if mut != nil {
			mut(&opts)
		}
		return opts
	}
	encoded := func(o *Options) { o.EncodedTier = true }
	parallel := func(o *Options) { o.Parallelism = 2 }
	or := &expr.Or{L: query.PredLt(0, 100).(*expr.Cmp), R: query.PredGt(1, 0).(*expr.Cmp)}

	cases := []struct {
		name     string
		rel      func() *storage.Relation
		opts     Options
		q        *query.Query
		strategy exec.Strategy
		skips    bool // DecodeSkips > 0
		fallback int  // GenericFallback delta
	}{
		{
			name:     "encoded/served",
			rel:      func() *storage.Relation { return storage.BuildColumnMajorSeg(tb, segCap) },
			opts:     frozen(encoded),
			q:        query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil),
			strategy: exec.StrategyEncoded,
			skips:    true,
		},
		{
			// An expression projection is outside the encoded pipeline:
			// it falls through to the cost-based choice.
			name:     "encoded/declined",
			rel:      func() *storage.Relation { return storage.BuildColumnMajorSeg(tb, segCap) },
			opts:     frozen(encoded),
			q:        query.ArithExpression("R", []data.AttrID{1, 2}, query.PredLt(0, 3_000)),
			strategy: exec.StrategyColumn,
		},
		{
			// Every segment has one group covering the query: the fused
			// scan fans out across the workers. The chooser picks row here:
			// a hybrid plan over a covering group never prices below the
			// row plan, and row wins ties.
			name:     "parallel/covered",
			rel:      func() *storage.Relation { return withGroup([]data.AttrID{1, 2, 3}) },
			opts:     frozen(parallel),
			q:        query.Aggregation("R", expr.AggMax, []data.AttrID{1, 2, 3}, query.PredGt(1, 0)),
			strategy: exec.StrategyRow,
		},
		{
			// A hybrid choice without a single covering group stays serial
			// and reports hybrid.
			name:     "parallel/hybrid",
			rel:      func() *storage.Relation { return withGroup([]data.AttrID{1, 2}) },
			opts:     frozen(parallel),
			q:        query.Projection("R", []data.AttrID{1, 2, 3}, query.PredGt(1, 0)),
			strategy: exec.StrategyHybrid,
		},
		{
			name:     "generic/or",
			rel:      func() *storage.Relation { return storage.BuildColumnMajorSeg(tb, segCap) },
			opts:     frozen(nil),
			q:        query.Aggregation("R", expr.AggCount, []data.AttrID{2}, or),
			strategy: exec.StrategyGeneric,
			fallback: 1,
		},
		{
			name:     "static-row",
			rel:      func() *storage.Relation { return storage.BuildRowMajorSeg(tb, false, segCap) },
			opts:     func() Options { o := DefaultOptions(); o.Mode = ModeStaticRow; return o }(),
			q:        query.Projection("R", []data.AttrID{0, 4}, query.PredLt(0, 700)),
			strategy: exec.StrategyRow,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(c.rel(), c.opts)
			defer e.Close()
			before := e.Stats().GenericFallback
			res, info, err := e.Execute(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Equal(reference(tb, c.q)) {
				t.Fatalf("%s: wrong result", c.q)
			}
			if info.Strategy != c.strategy {
				t.Fatalf("strategy = %v, want %v", info.Strategy, c.strategy)
			}
			if info.SegmentsScanned == 0 || info.SegmentsScanned != len(info.SegmentsTouched) {
				t.Fatalf("SegmentsScanned = %d, SegmentsTouched = %v", info.SegmentsScanned, info.SegmentsTouched)
			}
			if fp := e.QueryFingerprint(c.q); info.Fingerprint != fp {
				t.Fatalf("fingerprint = %+v, want %+v", info.Fingerprint, fp)
			}
			if got := info.DecodeSkips > 0; got != c.skips {
				t.Fatalf("DecodeSkips = %d, want > 0: %v", info.DecodeSkips, c.skips)
			}
			if d := e.Stats().GenericFallback - before; d != c.fallback {
				t.Fatalf("GenericFallback delta = %d, want %d", d, c.fallback)
			}
		})
	}
}

// TestRunLoaderErrorParallel: a spill loader that fails under a parallel
// scan surfaces its error from Execute, and every pin the scan took is
// released.
func TestRunLoaderErrorParallel(t *testing.T) {
	const rows, segCap = 2_000, 250
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), rows, 31)
	opts := DefaultOptions()
	opts.Mode = ModeFrozen
	opts.Parallelism = 2
	opts.MemoryBudgetBytes = 1
	opts.SpillDir = t.TempDir()
	e := New(storage.BuildRowMajorSeg(tb, false, segCap), opts)
	defer e.Close()
	e.EnforceBudget()
	if e.TierStats().SpilledSegments == 0 {
		t.Fatal("nothing spilled")
	}

	errLoad := errors.New("injected loader failure")
	bad := e.rel.Segments[3]
	e.rel.SetLoader(func(seg *storage.Segment) error {
		if seg == bad {
			return errLoad
		}
		return e.tier.load(seg)
	})
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, nil)
	if _, _, err := e.Execute(q); !errors.Is(err, errLoad) {
		t.Fatalf("Execute error = %v, want the loader's error", err)
	}
	tail := e.rel.Tail()
	for si, seg := range e.rel.Segments {
		if seg == tail || seg.State() == storage.SegSpilled {
			continue
		}
		if !seg.Unload() {
			t.Fatalf("segment %d still pinned after the failed scan", si)
		}
	}
}
