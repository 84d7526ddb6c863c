package storage

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"h2o/internal/data"
)

// watchFreed sets a finalizer on every group in gs that counts its
// collection. The caller must hold no reference of its own by awaitFreed.
func watchFreed(gs []*ColumnGroup) *atomic.Int32 {
	var freed atomic.Int32
	for _, g := range gs {
		runtime.SetFinalizer(g, func(*ColumnGroup) { freed.Add(1) })
	}
	return &freed
}

// awaitFreed runs a bounded number of GC cycles until want groups were
// collected, and fails t if they were not.
func awaitFreed(t *testing.T, freed *atomic.Int32, want int32) {
	t.Helper()
	for i := 0; i < 50 && freed.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got < want {
		t.Fatalf("%d of %d dropped groups were collected; the rest are still reachable", got, want)
	}
}

// stitchPair adds groups over {0, 1} and {2, 3} to seg and returns them.
func stitchPair(t *testing.T, seg *Segment) (x, y *ColumnGroup) {
	t.Helper()
	for _, attrs := range [][]data.AttrID{{0, 1}, {2, 3}} {
		g, err := StitchSeg(seg, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.AddGroup(g); err != nil {
			t.Fatal(err)
		}
		x, y = y, g
	}
	return x, y
}

// TestSegmentDropGroupFreesGroup: dropping a middle group and then the
// last one leaves neither reachable from the segment's group slice.
func TestSegmentDropGroupFreesGroup(t *testing.T) {
	rel := BuildColumnMajorSeg(segTable(t, 4, 1000), 4096)
	seg := rel.Segments[0]
	freed := func() *atomic.Int32 {
		x, y := stitchPair(t, seg)
		freed := watchFreed([]*ColumnGroup{x, y})
		if !seg.DropGroup(x) || !seg.DropGroup(y) {
			t.Fatal("drop refused")
		}
		return freed
	}()
	awaitFreed(t, freed, 2)
	runtime.KeepAlive(seg)
}

// TestRelationDropGroupFreesGroups: the same through Relation.DropGroup,
// in every segment.
func TestRelationDropGroupFreesGroups(t *testing.T) {
	rel := BuildColumnMajorSeg(segTable(t, 4, 1000), 256)
	freed := func() *atomic.Int32 {
		var gs []*ColumnGroup
		for _, seg := range rel.Segments {
			x, y := stitchPair(t, seg)
			gs = append(gs, x, y)
		}
		freed := watchFreed(gs)
		if !rel.DropGroup(gs[0]) || !rel.DropGroup(gs[1]) {
			t.Fatal("drop refused")
		}
		return freed
	}()
	awaitFreed(t, freed, int32(2*len(rel.Segments)))
	runtime.KeepAlive(rel)
}
