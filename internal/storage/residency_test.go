package storage

import (
	"errors"
	"testing"

	"h2o/internal/data"
)

// buildSegRel builds a column-major relation over synthetic data with the
// given segment capacity.
func buildSegRel(t *testing.T, rows, segCap int) (*Relation, *data.Table) {
	t.Helper()
	tb := data.Generate(data.SyntheticSchema("R", 4), rows, 7)
	return BuildColumnMajorSeg(tb, segCap), tb
}

// snapshotData deep-copies every group's data so a test can restore it from
// a fake loader.
func snapshotData(rel *Relation) map[*ColumnGroup][]data.Value {
	snap := make(map[*ColumnGroup][]data.Value)
	for _, seg := range rel.Segments {
		for _, g := range seg.Groups {
			cp := make([]data.Value, len(g.Data))
			copy(cp, g.Data)
			snap[g] = cp
		}
	}
	return snap
}

func TestUnloadAndFaultRoundTrip(t *testing.T) {
	rel, _ := buildSegRel(t, 1000, 100)
	snap := snapshotData(rel)
	loads := 0
	rel.SetLoader(func(s *Segment) error {
		loads++
		for _, g := range s.Groups {
			g.Data = append([]data.Value(nil), snap[g]...)
		}
		return nil
	})

	seg := rel.Segments[0]
	sum := func() data.Value {
		var v data.Value
		for r := 0; r < seg.Rows; r++ {
			v += seg.Groups[0].Data[r]
		}
		return v
	}
	want := sum()
	verBefore := seg.Version()
	relVerBefore := rel.Version()

	if !seg.Unload() {
		t.Fatal("Unload of a sealed resident segment failed")
	}
	if seg.Resident() {
		t.Fatal("segment still resident after Unload")
	}
	if seg.ResidentBytes() != 0 {
		t.Fatalf("spilled segment reports %d resident bytes", seg.ResidentBytes())
	}
	if seg.Bytes() == 0 {
		t.Fatal("logical Bytes must be residency-independent")
	}
	// Residency is not a mutation: versions must not move.
	if seg.Version() != verBefore || rel.Version() != relVerBefore {
		t.Fatal("Unload bumped a version")
	}
	// Zone maps stay resident: pruning works without data.
	if seg.Groups[0].Zones() == nil {
		t.Fatal("zone map dropped on Unload")
	}

	if faulted, err := seg.Acquire(); err != nil || !faulted {
		t.Fatalf("Acquire: faulted=%v err=%v", faulted, err)
	}
	if got := sum(); got != want {
		t.Fatalf("data changed across spill/fault: %d != %d", got, want)
	}
	if seg.Version() != verBefore || rel.Version() != relVerBefore {
		t.Fatal("Acquire bumped a version")
	}
	if seg.Faults() != 1 || loads != 1 {
		t.Fatalf("faults=%d loads=%d, want 1/1", seg.Faults(), loads)
	}
	// Second Acquire: already resident, no fault.
	if faulted, err := seg.Acquire(); err != nil || faulted {
		t.Fatalf("re-Acquire: faulted=%v err=%v", faulted, err)
	}
	seg.Release()
	seg.Release()
}

func TestUnloadRefusals(t *testing.T) {
	rel, _ := buildSegRel(t, 1000, 100)
	if rel.Tail().Unload() {
		t.Fatal("the mutable tail must never unload")
	}
	seg := rel.Segments[0]
	if _, err := seg.Acquire(); err != nil {
		t.Fatal(err)
	}
	if seg.Unload() {
		t.Fatal("a pinned segment must not unload")
	}
	seg.Release()
	if !seg.Unload() {
		t.Fatal("unpinned sealed segment should unload")
	}
	if seg.Unload() {
		t.Fatal("an already-spilled segment must not unload again")
	}
}

func TestAcquireWithoutLoaderFails(t *testing.T) {
	rel, _ := buildSegRel(t, 1000, 100)
	rel.SetLoader(func(s *Segment) error { return nil })
	seg := rel.Segments[0]
	if !seg.Unload() {
		t.Fatal("unload failed")
	}
	rel.SetLoader(nil)
	if _, err := seg.Acquire(); err == nil {
		t.Fatal("Acquire of a spilled segment without a loader must fail")
	}
}

func TestAcquireLoaderErrorLeavesSegmentSpilled(t *testing.T) {
	rel, _ := buildSegRel(t, 1000, 100)
	boom := errors.New("disk gone")
	rel.SetLoader(func(s *Segment) error { return boom })
	seg := rel.Segments[0]
	if !seg.Unload() {
		t.Fatal("unload failed")
	}
	if _, err := seg.Acquire(); !errors.Is(err, boom) {
		t.Fatalf("want loader error, got %v", err)
	}
	if seg.Resident() {
		t.Fatal("failed fault must leave the segment spilled")
	}
}

func TestCompactGivesSegmentsOwnBuffers(t *testing.T) {
	rel, tb := buildSegRel(t, 1000, 100)
	_ = tb
	before := make(map[*ColumnGroup]*data.Value)
	for _, seg := range rel.Segments {
		for _, g := range seg.Groups {
			before[g] = &g.Data[0]
		}
	}
	sum, err := Checksum(rel, []data.AttrID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rel.Compact()
	for _, seg := range rel.Segments {
		for _, g := range seg.Groups {
			if &g.Data[0] == before[g] {
				t.Fatal("Compact left a group on its (possibly shared) original backing array")
			}
			if len(g.Data) != g.Rows*g.Stride {
				t.Fatalf("compacted group has %d values, want %d", len(g.Data), g.Rows*g.Stride)
			}
		}
	}
	after, err := Checksum(rel, []data.AttrID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum != after {
		t.Fatal("Compact changed the data")
	}
}

// TestChecksumReadsEncodedSegments: the checksum of a relation whose
// sealed segments sit on the encoded rung (one of them padded and
// partial-block) equals the flat one, and reading it decodes nothing.
func TestChecksumReadsEncodedSegments(t *testing.T) {
	rel, tb := buildSegRel(t, 5000, 4500)
	padded := BuildGroupPadded(tb, []data.AttrID{1, 3}, 2)
	if err := rel.Segments[0].AddGroup(padded.slice(0, 4500)); err != nil {
		t.Fatal(err)
	}
	all := []data.AttrID{0, 1, 2, 3}
	want, err := Checksum(BuildColumnMajorSeg(tb, 4500), all)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Segments[0].DemoteToEncoded() {
		t.Fatal("demote failed")
	}
	got, err := Checksum(rel, all)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("checksum over encoded segments differs from the flat one")
	}
	if rel.Segments[0].State() != SegEncoded {
		t.Fatal("Checksum decoded an encoded segment")
	}
}

func TestResidentBytesAccounting(t *testing.T) {
	rel, _ := buildSegRel(t, 1000, 100)
	total := rel.ResidentBytes()
	if total != rel.Bytes() {
		t.Fatalf("fully resident: ResidentBytes %d != Bytes %d", total, rel.Bytes())
	}
	seg := rel.Segments[0]
	segBytes := seg.Bytes()
	if !seg.Unload() {
		t.Fatal("unload failed")
	}
	if got := rel.ResidentBytes(); got != total-segBytes {
		t.Fatalf("after spilling one segment: %d, want %d", got, total-segBytes)
	}
}
