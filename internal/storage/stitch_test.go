package storage

import (
	"reflect"
	"testing"

	"h2o/internal/data"
)

// segmentOf assembles a one-segment relation over tb from groups built
// over the given attribute sets; pad[i] > 0 pads group i.
func segmentOf(t *testing.T, tb *data.Table, parts [][]data.AttrID, pad []int) *Segment {
	t.Helper()
	groups := make([]*ColumnGroup, len(parts))
	for i, p := range parts {
		w := 0
		if i < len(pad) {
			w = pad[i]
		}
		groups[i] = BuildGroupPadded(tb, p, w)
	}
	rel, err := AssembleRelation(tb.Schema, max(tb.Rows, 1), [][]*ColumnGroup{groups})
	if err != nil {
		t.Fatal(err)
	}
	return rel.Segments[0]
}

func columns(n int) [][]data.AttrID {
	parts := make([][]data.AttrID, n)
	for a := range parts {
		parts[a] = []data.AttrID{a}
	}
	return parts
}

// TestCoveringGroupsTable pins the greedy cover over mixed layouts: the
// groups chosen and their order, the per-attribute assignment, the
// narrowest-wins tie-break (first in segment order among equals), and the
// sorted list of uncovered attributes in the error.
func TestCoveringGroupsTable(t *testing.T) {
	tb := segTable(t, 8, 10)
	cols := columns(8)
	wide := []data.AttrID{0, 1, 2, 3}
	twin := []data.AttrID{4, 5}
	all := []data.AttrID{0, 1, 2, 3, 4, 5, 6, 7}
	for _, c := range []struct {
		name   string
		parts  [][]data.AttrID
		pad    []int
		attrs  []data.AttrID
		groups []int               // indices into parts, in chosen order
		assign map[data.AttrID]int // attribute -> index into parts
		err    string
	}{
		{name: "columns", parts: cols, attrs: []data.AttrID{5, 0, 2},
			groups: []int{0, 2, 5}, assign: map[data.AttrID]int{0: 0, 2: 2, 5: 5}},
		{name: "wide-covers-most", parts: append(cols, wide), attrs: []data.AttrID{1, 2, 3},
			groups: []int{8}, assign: map[data.AttrID]int{1: 8, 2: 8, 3: 8}},
		{name: "narrow-wins-tie", parts: append(cols, wide), attrs: []data.AttrID{1, 6},
			groups: []int{1, 6}, assign: map[data.AttrID]int{1: 1, 6: 6}},
		{name: "wide-then-column", parts: append(cols, wide), attrs: []data.AttrID{7, 0, 3, 1},
			groups: []int{8, 7}, assign: map[data.AttrID]int{0: 8, 1: 8, 3: 8, 7: 7}},
		{name: "first-of-equals", parts: [][]data.AttrID{twin, {0, 1, 2, 3, 6, 7}, {4, 5}}, attrs: []data.AttrID{5},
			groups: []int{0}, assign: map[data.AttrID]int{5: 0}},
		{name: "padded-row", parts: [][]data.AttrID{all}, pad: []int{2}, attrs: []data.AttrID{6, 0, 6},
			groups: []int{0}, assign: map[data.AttrID]int{0: 0, 6: 0}},
		{name: "row-beside-group", parts: [][]data.AttrID{all, wide}, pad: []int{2}, attrs: []data.AttrID{0, 4},
			groups: []int{0}, assign: map[data.AttrID]int{0: 0, 4: 0}},
		{name: "empty", parts: cols, attrs: nil, groups: []int{}, assign: map[data.AttrID]int{}},
		{name: "uncovered", parts: cols, attrs: []data.AttrID{42, 1, 9, 42},
			err: `storage: attributes [9 42] not covered by any group of "R"`},
		{name: "negative", parts: cols, attrs: []data.AttrID{3, -2},
			err: `storage: attributes [-2] not covered by any group of "R"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			seg := segmentOf(t, tb, c.parts, c.pad)
			got, assign, err := seg.CoveringGroups(c.attrs)
			if c.err != "" {
				if err == nil || err.Error() != c.err || got != nil || assign != nil {
					t.Fatalf("CoveringGroups(%v) = %v, %v, %v; want error %q", c.attrs, got, assign, err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.groups) {
				t.Fatalf("chose %d groups %v, want %d", len(got), got, len(c.groups))
			}
			for i, gi := range c.groups {
				if got[i] != seg.Groups[gi] {
					t.Fatalf("group %d = %v, want %v", i, got[i].Attrs, seg.Groups[gi].Attrs)
				}
			}
			if len(assign) != len(c.assign) {
				t.Fatalf("assignment %v, want %d entries", assign, len(c.assign))
			}
			for a, gi := range c.assign {
				if assign[a] != seg.Groups[gi] {
					t.Fatalf("attribute %d assigned to %v, want %v", a, assign[a], seg.Groups[gi].Attrs)
				}
			}
		})
	}
}

// checkDerived stitches attrs out of seg and checks the group against a
// row-by-row copy and its zone map, field for field, against a rebuild.
func checkDerived(t *testing.T, seg *Segment, attrs []data.AttrID) *ColumnGroup {
	t.Helper()
	g, err := StitchSeg(seg, attrs)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < seg.Rows; r++ {
		for _, a := range g.Attrs {
			src, _ := seg.GroupFor(a)
			if got, want := g.Value(r, a), src.Value(r, a); got != want {
				t.Fatalf("row %d attr %d = %d, want %d", r, a, got, want)
			}
		}
	}
	if want := BuildZoneMap(g, 0); !reflect.DeepEqual(g.Zones(), want) {
		t.Fatalf("stitched zone map %+v, rebuilt %+v", g.Zones(), want)
	}
	return g
}

// TestStitchDerivesZoneMaps checks that a stitched group's zone map, copied
// from its sources' maps, equals a rebuild from its data on every source
// layout, on a segment whose last zone is partial and on an empty one.
func TestStitchDerivesZoneMaps(t *testing.T) {
	attrs := []data.AttrID{0, 2, 3, 5, 6}
	for _, rows := range []int{0, 1, 1023, 1024, 1025, 3067} {
		tb := segTable(t, 8, rows)
		for _, c := range []struct {
			name  string
			parts [][]data.AttrID
			pad   []int
		}{
			{"columns", columns(8), nil},
			{"wide-plus-columns", append([][]data.AttrID{{0, 1, 2, 3}}, columns(8)[4:]...), nil},
			{"padded-row", [][]data.AttrID{{0, 1, 2, 3, 4, 5, 6, 7}}, []int{3}},
		} {
			seg := segmentOf(t, tb, c.parts, c.pad)
			if derived := deriveZoneMap(seg.Rows, mustSources(t, seg, attrs)); derived == nil {
				t.Fatalf("%s/%d rows: no zone map derived from complete sources", c.name, rows)
			}
			checkDerived(t, seg, attrs)
		}
	}
}

func mustSources(t *testing.T, seg *Segment, attrs []data.AttrID) []stitchCol {
	t.Helper()
	cols, err := stitchSources(seg, data.SortedUnique(attrs))
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

// TestStitchZoneMapFallsBack checks the rebuild path: a suffix view has no
// zone maps, and a source summarized at a non-default block cannot lend
// its zones.
func TestStitchZoneMapFallsBack(t *testing.T) {
	tb := segTable(t, 4, 3000)
	seg := segmentOf(t, tb, columns(4), nil)
	suffix := seg.Suffix(700)
	if deriveZoneMap(suffix.Rows, mustSources(t, suffix, []data.AttrID{1, 3})) != nil {
		t.Fatal("derived a zone map from a suffix view's groups")
	}
	g := checkDerived(t, suffix, []data.AttrID{1, 3})
	if g.Rows != 2300 || g.Value(0, 1) != tb.Cols[1][700] {
		t.Fatalf("suffix stitch has %d rows, first a1 %d", g.Rows, g.Value(0, 1))
	}

	seg = segmentOf(t, tb, columns(4), nil)
	seg.Groups[2].BuildZones(512)
	if deriveZoneMap(seg.Rows, mustSources(t, seg, []data.AttrID{0, 2})) != nil {
		t.Fatal("derived a zone map from a 512-row-block source")
	}
	if g := checkDerived(t, seg, []data.AttrID{0, 2}); g.Zones().Block != DefaultZoneBlock {
		t.Fatalf("rebuilt zone map has block %d", g.Zones().Block)
	}
}

// TestStitchedTailExtendsDerivedMap reorganizes a partly full tail, adds
// the stitched group, then appends across a 1024-row boundary: the derived
// map must extend exactly like a rebuilt one.
func TestStitchedTailExtendsDerivedMap(t *testing.T) {
	tb := segTable(t, 4, 1000)
	rel := BuildColumnMajorSeg(tb, 4096)
	tail := rel.Tail()
	g, err := StitchSeg(tail, []data.AttrID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tail.AddGroup(g); err != nil {
		t.Fatal(err)
	}
	batch := make([][]data.Value, 300)
	for i := range batch {
		v := data.Value(5000 - 7*i)
		batch[i] = []data.Value{data.Value(1000 + i), -v, v * 3, v}
	}
	if err := rel.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if g.Rows != 1300 || g.Zones().Zones() != 2 {
		t.Fatalf("stitched group has %d rows in %d zones, want 1300 in 2", g.Rows, g.Zones().Zones())
	}
	if want := BuildZoneMap(g, 0); !reflect.DeepEqual(g.Zones(), want) {
		t.Fatalf("extended derived map %+v, rebuilt %+v", g.Zones(), want)
	}
}
