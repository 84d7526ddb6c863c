package storage

import (
	"slices"
	"testing"

	"h2o/internal/data"
)

// TestVersionAdvancesOnMutation checks that every mutation class — append,
// batch append, group creation, group drop — bumps the relation version, and
// that read-only operations leave it alone. Result caches key on this
// counter, so a missed bump would serve stale results.
func TestVersionAdvancesOnMutation(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 4), 100, 1)
	rel := BuildColumnMajor(tb)
	v0 := rel.Version()

	if err := rel.Append([]data.Value{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if rel.Version() <= v0 {
		t.Fatalf("Append did not bump version: %d -> %d", v0, rel.Version())
	}
	v1 := rel.Version()

	if err := rel.AppendBatch([][]data.Value{{5, 6, 7, 8}, {9, 10, 11, 12}}); err != nil {
		t.Fatal(err)
	}
	if rel.Version() <= v1 {
		t.Fatalf("AppendBatch did not bump version: %d -> %d", v1, rel.Version())
	}
	v2 := rel.Version()

	// An empty batch is a no-op and must not invalidate caches.
	if err := rel.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if rel.Version() != v2 {
		t.Fatalf("empty AppendBatch bumped version: %d -> %d", v2, rel.Version())
	}

	g, err := Stitch(rel, []data.AttrID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AddGroup(g); err != nil {
		t.Fatal(err)
	}
	if rel.Version() <= v2 {
		t.Fatalf("AddGroup did not bump version: %d -> %d", v2, rel.Version())
	}
	v3 := rel.Version()

	if !rel.DropGroup(g) {
		t.Fatal("DropGroup refused a droppable group")
	}
	if rel.Version() <= v3 {
		t.Fatalf("DropGroup did not bump version: %d -> %d", v3, rel.Version())
	}
	v4 := rel.Version()

	// Read-only operations do not advance the version.
	if _, err := rel.GroupFor(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rel.CoveringGroups([]data.AttrID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_ = rel.Kind()
	_ = rel.LayoutSignature()
	if rel.Version() != v4 {
		t.Fatalf("read-only access bumped version: %d -> %d", v4, rel.Version())
	}
}

// TestVersionFailedMutationsDoNotBump checks that rejected mutations leave
// the version untouched.
func TestVersionFailedMutationsDoNotBump(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 3), 10, 1)
	rel := BuildColumnMajor(tb)
	v0 := rel.Version()

	if err := rel.Append([]data.Value{1}); err == nil {
		t.Fatal("short tuple accepted")
	}
	if err := rel.AppendBatch([][]data.Value{{1, 2, 3}, {4}}); err == nil {
		t.Fatal("bad batch accepted")
	}
	// Dropping the sole cover of an attribute must be refused.
	g, err := rel.GroupFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if rel.DropGroup(g) {
		t.Fatal("dropped the only cover of attribute 0")
	}
	if rel.Version() != v0 {
		t.Fatalf("failed mutations bumped version: %d -> %d", v0, rel.Version())
	}
}

// TestSegmentRowsAt checks the per-segment version history behind suffix
// repair: every bump records the row count it left, lookups of versions
// the segment never held miss, and sealing trims the history so an older
// tail version misses too (that segment falls back to a full rescan).
func TestSegmentRowsAt(t *testing.T) {
	const segCap = 8
	tb := data.Generate(data.SyntheticSchema("R", 3), segCap+2, 1)
	rel := BuildColumnMajorSeg(tb, segCap)
	sealed, tail := rel.Segments[0], rel.Tail()
	v0 := tail.Version()
	if rows, ok := tail.RowsAt(v0); !ok || rows != 2 {
		t.Fatalf("RowsAt(build version) = %d, %v; want 2, true", rows, ok)
	}

	h := len(tail.history)
	if err := rel.AppendBatch([][]data.Value{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	v1 := tail.Version()
	if len(tail.history) != h+1 {
		t.Fatalf("AppendBatch added %d history entries, want 1", len(tail.history)-h)
	}
	for _, c := range []struct {
		v    uint64
		rows int
	}{{v0, 2}, {v1, 5}} {
		if rows, ok := tail.RowsAt(c.v); !ok || rows != c.rows {
			t.Fatalf("RowsAt(%d) = %d, %v; want %d, true", c.v, rows, ok, c.rows)
		}
	}

	g, err := StitchSeg(tail, []data.AttrID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tail.AddGroup(g); err != nil {
		t.Fatal(err)
	}
	v2 := tail.Version()
	if rows, ok := tail.RowsAt(v2); !ok || rows != 5 {
		t.Fatalf("RowsAt(after AddGroup) = %d, %v; want the unchanged 5, true", rows, ok)
	}

	for _, v := range []uint64{0, sealed.Version(), v2 + 1000} {
		if rows, ok := tail.RowsAt(v); ok {
			t.Fatalf("RowsAt(%d), a version the tail never held, = %d, true", v, rows)
		}
	}

	// Fill the tail and roll over: the old tail seals with one entry left.
	batch := make([][]data.Value, segCap)
	for i := range batch {
		batch[i] = []data.Value{data.Value(i), 0, 0}
	}
	if err := rel.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if rel.Tail() == tail {
		t.Fatal("the batch did not roll the tail over")
	}
	if len(tail.history) != 1 {
		t.Fatalf("sealed tail keeps %d history entries, want 1", len(tail.history))
	}
	if rows, ok := tail.RowsAt(tail.Version()); !ok || rows != segCap {
		t.Fatalf("RowsAt(sealed version) = %d, %v; want %d, true", rows, ok, segCap)
	}
	if _, ok := tail.RowsAt(v1); ok {
		t.Fatal("an older version of the sealed tail still resolves")
	}
}

// TestSegmentSuffix checks the suffix view: rows [lo, Rows) of every
// group, the narrowest-group index carried over, and the parent untouched.
func TestSegmentSuffix(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 4), 20, 3)
	rel := BuildColumnMajor(tb)
	seg := rel.Tail()
	g, err := StitchSeg(seg, []data.AttrID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.AddGroup(g); err != nil {
		t.Fatal(err)
	}
	view := seg.Suffix(15)
	if view.Rows != 5 || seg.Rows != 20 {
		t.Fatalf("view has %d rows, parent %d; want 5 and 20", view.Rows, seg.Rows)
	}
	if view.LayoutSignature() != seg.LayoutSignature() {
		t.Fatalf("view layout %q, parent %q", view.LayoutSignature(), seg.LayoutSignature())
	}
	for a := data.AttrID(0); a < 4; a++ {
		vg, err := view.GroupFor(a)
		if err != nil {
			t.Fatal(err)
		}
		pg, _ := seg.GroupFor(a)
		if vg.Width != pg.Width || vg.Rows != 5 {
			t.Fatalf("attr %d: view group %v, parent's narrowest %v", a, vg, pg)
		}
		for r := 0; r < 5; r++ {
			if got, want := vg.Value(r, a), tb.Cols[a][15+r]; got != want {
				t.Fatalf("attr %d row %d: view reads %d, want %d", a, r, got, want)
			}
		}
	}
}

// TestSegmentBounds checks the exact-bounds read grouped folds plan their
// key directory from: each attribute's minimum and maximum over the
// segment's rows, extended by an append, and no bounds for an attribute the
// group does not store or on a suffix view, which has no zone maps.
func TestSegmentBounds(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 4), 20, 3)
	rel := BuildColumnMajor(tb)
	seg := rel.Tail()
	check := func(a data.AttrID, want []data.Value) {
		t.Helper()
		lo, hi := want[0], want[0]
		for _, v := range want {
			lo, hi = min(lo, v), max(hi, v)
		}
		if glo, ghi, ok := seg.Bounds(a); !ok || glo != lo || ghi != hi {
			t.Fatalf("attr %d: bounds [%d, %d] ok=%v, want [%d, %d]", a, glo, ghi, ok, lo, hi)
		}
	}
	for a := data.AttrID(0); a < 4; a++ {
		check(a, tb.Cols[a])
	}
	extreme := []data.Value{-1 << 62, 1 << 62, 0, 0}
	if err := rel.Append(extreme); err != nil {
		t.Fatal(err)
	}
	check(0, append(slices.Clone(tb.Cols[0]), extreme[0]))
	check(1, append(slices.Clone(tb.Cols[1]), extreme[1]))
	g, err := seg.GroupFor(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := g.Bounds(3); ok {
		t.Fatal("bounds for an attribute the group does not store")
	}
	if _, _, ok := seg.Bounds(4); ok {
		t.Fatal("bounds for an attribute outside the schema")
	}
	if _, _, ok := seg.Suffix(10).Bounds(0); ok {
		t.Fatal("bounds on a suffix view")
	}
}

// TestAppendBatchGrowsGeometrically checks that small batches reallocate a
// tail group O(log SegCap) times, never past SegCap rows of capacity.
func TestAppendBatchGrowsGeometrically(t *testing.T) {
	const segCap = 4096
	rel := BuildColumnMajorSeg(data.Generate(data.SyntheticSchema("R", 2), 1, 1), segCap)
	g := rel.Tail().Groups[0]
	reallocs, last := 0, cap(g.Data)
	for rel.Tail().Rows < segCap {
		if err := rel.AppendBatch([][]data.Value{{1, 2}}); err != nil {
			t.Fatal(err)
		}
		if c := cap(g.Data); c != last {
			reallocs, last = reallocs+1, c
		}
	}
	if reallocs > 13 {
		t.Fatalf("filling a %d-row tail one row at a time reallocated %d times", segCap, reallocs)
	}
	if last > segCap*g.Stride {
		t.Fatalf("tail capacity %d words exceeds SegCap rows (%d words)", last, segCap*g.Stride)
	}
}
