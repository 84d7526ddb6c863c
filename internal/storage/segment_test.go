package storage

import (
	"reflect"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
)

// segTable builds a time-ordered table (attr 0 equals the row index) so
// segment boundaries land on known values.
func segTable(t *testing.T, attrs, rows int) *data.Table {
	t.Helper()
	return data.GenerateTimeSeries(data.SyntheticSchema("R", attrs), rows, 99)
}

func TestRelationSplitsIntoSegments(t *testing.T) {
	tb := segTable(t, 4, 1000)
	rel := BuildColumnMajorSeg(tb, 256)
	if len(rel.Segments) != 4 { // 256+256+256+232
		t.Fatalf("segments = %d, want 4", len(rel.Segments))
	}
	for si, seg := range rel.Segments[:3] {
		if seg.Rows != 256 {
			t.Fatalf("interior segment %d has %d rows", si, seg.Rows)
		}
	}
	if rel.Tail().Rows != 232 {
		t.Fatalf("tail rows = %d", rel.Tail().Rows)
	}
	// Data is intact across boundaries: segment-local row s maps to global
	// row base+s.
	base := 0
	for _, seg := range rel.Segments {
		for a := 0; a < 4; a++ {
			g, err := seg.GroupFor(data.AttrID(a))
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < seg.Rows; r += 37 {
				if g.Value(r, a) != tb.Value(base+r, a) {
					t.Fatalf("segment value mismatch at global row %d attr %d", base+r, a)
				}
			}
		}
		base += seg.Rows
	}
}

// TestAppendRollsOverIntoFreshTail is the core tail invariant: appends fill
// the tail to capacity, seal it, and continue in a fresh tail carrying the
// same layout, leaving sealed segments untouched.
func TestAppendRollsOverIntoFreshTail(t *testing.T) {
	tb := segTable(t, 3, 10)
	rel, err := NewRelationSeg(tb.Schema, tb.Rows,
		[]*ColumnGroup{BuildGroup(tb, []data.AttrID{0, 1}), BuildGroup(tb, []data.AttrID{2})}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Segments) != 1 {
		t.Fatalf("segments = %d", len(rel.Segments))
	}
	sealed := rel.Segments[0]
	sealedVersionBefore := sealed.Version()

	// 6 appends fill the tail to 16; the 7th must open a fresh one.
	for i := 0; i < 7; i++ {
		v := data.Value(1000 + i)
		if err := rel.Append([]data.Value{v, v + 1, v + 2}); err != nil {
			t.Fatal(err)
		}
	}
	if len(rel.Segments) != 2 {
		t.Fatalf("segments after rollover = %d, want 2", len(rel.Segments))
	}
	if sealed.Rows != 16 || rel.Tail().Rows != 1 || rel.Rows != 17 {
		t.Fatalf("rows: sealed=%d tail=%d total=%d", sealed.Rows, rel.Tail().Rows, rel.Rows)
	}
	// The fresh tail clones the layout.
	if rel.Tail().LayoutSignature() != sealed.LayoutSignature() {
		t.Fatalf("tail layout %q differs from sealed %q", rel.Tail().LayoutSignature(), sealed.LayoutSignature())
	}
	// The sealed segment's version advanced while it absorbed appends, and
	// the rolled-over value landed in the tail.
	if sealed.Version() <= sealedVersionBefore {
		t.Fatal("sealed segment version did not advance during its tail phase")
	}
	g, _ := rel.Tail().GroupFor(0)
	if g.Value(0, 0) != 1006 {
		t.Fatalf("tail row 0 attr 0 = %d, want 1006", g.Value(0, 0))
	}
	// Zone maps extended incrementally: the tail knows its exact bounds.
	if rel.Tail().MayMatch(0, expr.Gt, 1006) {
		t.Fatal("tail zone map should rule out values above its max")
	}
	if !rel.Tail().MayMatch(0, expr.Eq, 1006) {
		t.Fatal("tail zone map lost its own max")
	}
}

func TestAppendBatchCrossesMultipleBoundaries(t *testing.T) {
	tb := segTable(t, 2, 4)
	rel := BuildColumnMajorSeg(tb, 8)
	var batch [][]data.Value
	for i := 0; i < 30; i++ {
		batch = append(batch, []data.Value{data.Value(100 + i), data.Value(i)})
	}
	if err := rel.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if rel.Rows != 34 {
		t.Fatalf("rows = %d", rel.Rows)
	}
	if len(rel.Segments) != 5 { // ceil(34/8) = 5: 8,8,8,8,2
		t.Fatalf("segments = %d, want 5", len(rel.Segments))
	}
	for si, seg := range rel.Segments[:4] {
		if seg.Rows != 8 {
			t.Fatalf("segment %d rows = %d", si, seg.Rows)
		}
	}
	// Checksum across the whole relation matches a straight rebuild.
	want := data.SyntheticSchema("R", 2)
	_ = want
	g, _ := rel.Segments[2].GroupFor(0)
	// Global row 16+3 = batch index 15 -> value 115.
	if g.Value(3, 0) != 115 {
		t.Fatalf("mid-batch value wrong: %d", g.Value(3, 0))
	}
	// A ragged batch leaves everything untouched.
	before := rel.Version()
	if err := rel.AppendBatch([][]data.Value{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if rel.Version() != before || rel.Rows != 34 {
		t.Fatal("failed batch mutated the relation")
	}
}

// TestStitchSegMidRelation reorganizes a single interior segment: the new
// group holds exactly that segment's rows and registers without touching
// any other segment.
func TestStitchSegMidRelation(t *testing.T) {
	tb := segTable(t, 6, 1024)
	rel := BuildColumnMajorSeg(tb, 256)
	mid := rel.Segments[2] // global rows [512, 768)
	otherVersions := []uint64{rel.Segments[0].Version(), rel.Segments[1].Version(), rel.Segments[3].Version()}

	g, err := StitchSeg(mid, []data.AttrID{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 256 {
		t.Fatalf("stitched rows = %d", g.Rows)
	}
	for r := 0; r < 256; r++ {
		for _, a := range []data.AttrID{1, 3, 5} {
			if g.Value(r, a) != tb.Value(512+r, a) {
				t.Fatalf("stitched value mismatch at seg row %d attr %d", r, a)
			}
		}
	}
	if err := mid.AddGroup(g); err != nil {
		t.Fatal(err)
	}
	if _, ok := mid.ExactGroup([]data.AttrID{1, 3, 5}); !ok {
		t.Fatal("mid segment lost its new group")
	}
	// Mixed layout: the relation-level ExactGroup must report false, and the
	// other segments must be untouched.
	if _, ok := rel.ExactGroup([]data.AttrID{1, 3, 5}); ok {
		t.Fatal("relation-level ExactGroup must require the group everywhere")
	}
	for i, si := range []int{0, 1, 3} {
		if rel.Segments[si].Version() != otherVersions[i] {
			t.Fatalf("segment %d version changed by a foreign reorg", si)
		}
		if _, ok := rel.Segments[si].ExactGroup([]data.AttrID{1, 3, 5}); ok {
			t.Fatalf("segment %d gained a group it never stitched", si)
		}
	}
	if rel.Uniform() {
		t.Fatal("relation should report a mixed layout")
	}
	// Project from the segment-local group works too.
	sub, err := Project(g, []data.AttrID{3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows != 256 || sub.Value(10, 3) != tb.Value(522, 3) {
		t.Fatal("projection from a mid-relation segment group wrong")
	}
}

// TestZoneMapPruningAtSegmentEdges checks the exact-boundary semantics of
// segment pruning on append-ordered data: attribute 0 equals the global row
// index, so segment si spans values [si*cap, (si+1)*cap).
func TestZoneMapPruningAtSegmentEdges(t *testing.T) {
	tb := segTable(t, 2, 1024)
	rel := BuildColumnMajorSeg(tb, 256)
	seg1 := rel.Segments[1] // values [256, 512)

	cases := []struct {
		op   expr.CmpOp
		v    data.Value
		want bool
	}{
		{expr.Lt, 256, false}, // strictly below the segment's min
		{expr.Le, 256, true},  // touches exactly the first row
		{expr.Lt, 257, true},
		{expr.Gt, 511, false}, // strictly above the segment's max
		{expr.Ge, 511, true},  // touches exactly the last row
		{expr.Eq, 256, true},
		{expr.Eq, 511, true},
		{expr.Eq, 512, false}, // first value of the *next* segment
		{expr.Eq, 255, false}, // last value of the *previous* segment
	}
	for _, c := range cases {
		if got := seg1.MayMatch(0, c.op, c.v); got != c.want {
			t.Errorf("seg[256,512) MayMatch(a0 %v %d) = %v, want %v", c.op, c.v, got, c.want)
		}
	}
	// The uniform attribute never prunes.
	if !seg1.MayMatch(1, expr.Lt, data.ValueHi) {
		t.Error("uniform attribute should not prune a full-range predicate")
	}
	// An attribute with no zone-mapped group is conservatively scannable,
	// and an empty segment is always prunable.
	empty := &Segment{rel: rel}
	if empty.MayMatch(0, expr.Eq, 1) {
		t.Error("empty segment cannot match anything")
	}
}

func TestRelationAddDropGroupSpansSegments(t *testing.T) {
	tb := segTable(t, 4, 600)
	rel := BuildColumnMajorSeg(tb, 256)
	full, err := Stitch(rel, []data.AttrID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AddGroup(full); err != nil {
		t.Fatal(err)
	}
	for si, seg := range rel.Segments {
		g, ok := seg.ExactGroup([]data.AttrID{1, 2})
		if !ok {
			t.Fatalf("segment %d missing the sliced group", si)
		}
		if g.Rows != seg.Rows {
			t.Fatalf("segment %d slice rows = %d, want %d", si, g.Rows, seg.Rows)
		}
	}
	if !rel.Uniform() {
		t.Fatal("relation should stay uniform after a relation-level AddGroup")
	}
	if !rel.DropGroup(full) {
		t.Fatal("DropGroup refused the redundant group")
	}
	for si, seg := range rel.Segments {
		if _, ok := seg.ExactGroup([]data.AttrID{1, 2}); ok {
			t.Fatalf("segment %d kept the dropped group", si)
		}
	}
	// Dropping a sole cover is refused atomically.
	g0, _ := rel.GroupFor(0)
	if rel.DropGroup(g0) {
		t.Fatal("dropped the only cover of attribute 0")
	}
}

func TestZoneMapExtendRowMatchesRebuild(t *testing.T) {
	tb := segTable(t, 3, 0)
	const segCap = 2500
	rel, err := NewRelationSeg(tb.Schema, 0, []*ColumnGroup{
		NewGroup([]data.AttrID{0, 1}, 0), NewGroupPadded([]data.AttrID{2}, 0, 2),
	}, segCap)
	if err != nil {
		t.Fatal(err)
	}
	vals := []data.Value{7, -3, 12, 0, 900, -900, 55, 55, 1}
	var want [][]data.Value
	row := func() []data.Value {
		i := len(want)
		v := vals[i%len(vals)] + data.Value(i/3)
		want = append(want, []data.Value{v, -v, v * 2})
		return want[i]
	}
	for i := 0; i < 200; i++ {
		if err := rel.Append(row()); err != nil {
			t.Fatal(err)
		}
	}
	// 200 → 900 → 1900 (crosses zone 1024) → 1901 → seal at 2500 (crosses
	// 2048), then 2401 in the fresh tail → 2438.
	for _, n := range []int{700, 1000, 1, 3000, 37} {
		batch := make([][]data.Value, n)
		for i := range batch {
			batch[i] = row()
		}
		if err := rel.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if len(rel.Segments) != 2 || rel.Segments[0].Rows != segCap || rel.Rows != len(want) {
		t.Fatalf("segments = %d, first has %d rows, relation %d; want 2, %d, %d",
			len(rel.Segments), rel.Segments[0].Rows, rel.Rows, segCap, len(want))
	}
	base := 0
	for si, seg := range rel.Segments {
		for _, g := range seg.Groups {
			inc := g.Zones()
			if fresh := BuildZoneMap(g, inc.Block); !reflect.DeepEqual(inc, fresh) {
				t.Fatalf("segment %d group %v: extended zone map %+v, rebuilt %+v", si, g.Attrs, inc, fresh)
			}
			check := func(what string, c *ColumnGroup) {
				for r := 0; r < seg.Rows; r++ {
					for off, a := range c.Attrs {
						if got := c.Data[r*c.Stride+off]; got != want[base+r][a] {
							t.Fatalf("segment %d group %v %s: row %d attr %d = %d, want %d", si, g.Attrs, what, r, a, got, want[base+r][a])
						}
					}
					for _, pad := range c.Data[r*c.Stride+c.Width : (r+1)*c.Stride] {
						if pad != 0 {
							t.Fatalf("segment %d group %v %s: row %d has padding %d", si, g.Attrs, what, r, pad)
						}
					}
				}
			}
			check("data", g)
			if si == 0 {
				dec := NewGroupPadded(g.Attrs, g.Rows, g.Stride-g.Width)
				g.Encoding().DecodeInto(dec)
				check("decoded", dec)
			}
		}
		base += seg.Rows
	}
}
