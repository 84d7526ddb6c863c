package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2o/internal/data"
	"h2o/internal/storage"
)

func segStoreFixture(t testing.TB) (*SegmentStore, *storage.Relation) {
	t.Helper()
	st, err := NewSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tb := data.Generate(data.SyntheticSchema("R", 4), 1000, 11)
	return st, storage.BuildColumnMajorSeg(tb, 100)
}

func TestSegmentStoreRoundTrip(t *testing.T) {
	st, rel := segStoreFixture(t)
	seg := rel.Segments[2]
	var sums []uint64
	for _, g := range seg.Groups {
		sums = append(sums, storage.GroupChecksum(g))
	}

	if err := st.WriteSegment("r-seg2", seg); err != nil {
		t.Fatal(err)
	}
	if !seg.Unload() {
		t.Fatal("unload failed")
	}
	// A fault installs the encoded form; Acquire decodes back to flat.
	rel.SetLoader(func(s *storage.Segment) error { return st.ReadSegment("r-seg2", s) })
	faulted, err := seg.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if !faulted {
		t.Fatal("read did not count as a fault")
	}
	defer seg.Release()
	for gi, g := range seg.Groups {
		if storage.GroupChecksum(g) != sums[gi] {
			t.Fatalf("group %d content changed across spill round trip", gi)
		}
	}
}

// TestSegmentStoreCorruptFile: a damaged file, or one in any format other
// than H2OSEG02, fails to load with a clean error and leaves the segment
// untouched.
func TestSegmentStoreCorruptFile(t *testing.T) {
	cases := []struct {
		name string
		bend func(raw []byte)
	}{
		// One flipped byte in the middle of the data section.
		{"bitflip", func(raw []byte) { raw[len(raw)/2] ^= 0xFF }},
		// The retired flat format's magic.
		{"legacy-magic", func(raw []byte) { copy(raw, "H2OSEG01") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, rel := segStoreFixture(t)
			seg := rel.Segments[1]
			if err := st.WriteSegment("k", seg); err != nil {
				t.Fatal(err)
			}
			path := st.Path("k")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c.bend(raw)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if !seg.Unload() {
				t.Fatal("unload failed")
			}
			err = st.ReadSegment("k", seg)
			if err == nil {
				t.Fatal("a damaged segment file must fail to load")
			}
			if !strings.HasPrefix(err.Error(), "persist:") {
				t.Fatalf("want a clean persist error, got %v", err)
			}
			// A failed fault leaves the skeleton untouched.
			for _, g := range seg.Groups {
				if g.Data != nil || g.CachedEncoding() != nil {
					t.Fatal("failed load installed partial data")
				}
			}
		})
	}
}

// FuzzReadSegment feeds arbitrary bytes to ReadSegment as a spill file of
// a fresh store and segment. It must never panic; a failed fault leaves
// the segment spilled and untouched, and a successful one restores every
// group's original content.
func FuzzReadSegment(f *testing.F) {
	st, rel := segStoreFixture(f)
	if err := st.WriteSegment("k", rel.Segments[2]); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(st.Path("k"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append([]byte("H2OSEG01"), valid[8:]...))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, rel := segStoreFixture(t)
		seg := rel.Segments[2]
		var sums []uint64
		for _, g := range seg.Groups {
			sums = append(sums, storage.GroupChecksum(g))
		}
		version := seg.Version()
		if err := os.WriteFile(st.Path("k"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if !seg.Unload() {
			t.Fatal("unload failed")
		}
		rel.SetLoader(func(s *storage.Segment) error { return st.ReadSegment("k", s) })
		if _, err := seg.Acquire(); err != nil {
			if seg.State() != storage.SegSpilled || seg.Version() != version || seg.Faults() != 0 {
				t.Fatalf("failed fault changed the segment: state %v, version %d, faults %d", seg.State(), seg.Version(), seg.Faults())
			}
			for gi, g := range seg.Groups {
				if g.Data != nil || g.CachedEncoding() != nil {
					t.Fatalf("failed fault installed data on group %d", gi)
				}
			}
			return
		}
		for gi, g := range seg.Groups {
			if storage.GroupChecksum(g) != sums[gi] {
				t.Fatalf("group %d content changed across the fault", gi)
			}
		}
		seg.Release()
		seg.ReleaseMapping()
	})
}

func TestSegmentStoreTruncatedFile(t *testing.T) {
	st, rel := segStoreFixture(t)
	seg := rel.Segments[1]
	if err := st.WriteSegment("k", seg); err != nil {
		t.Fatal(err)
	}
	path := st.Path("k")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if !seg.Unload() {
		t.Fatal("unload failed")
	}
	if err := st.ReadSegment("k", seg); err == nil {
		t.Fatal("truncated segment file must fail to load")
	}
}

func TestSegmentStoreStaleVersion(t *testing.T) {
	st, rel := segStoreFixture(t)
	seg := rel.Segments[1]
	if err := st.WriteSegment("k", seg); err != nil {
		t.Fatal(err)
	}
	// Mutate the segment after the spill was written: the file is stale.
	g, err := storage.StitchSeg(seg, []data.AttrID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.AddGroup(g); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadSegment("k", seg); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("want stale-version error, got %v", err)
	}
}

func TestSegmentStoreWriteIsAtomic(t *testing.T) {
	st, rel := segStoreFixture(t)
	seg := rel.Segments[0]
	if err := st.WriteSegment("k", seg); err != nil {
		t.Fatal(err)
	}
	// No temporary file may survive a successful write.
	matches, err := filepath.Glob(filepath.Join(st.Dir(), "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temporary files left behind: %v", matches)
	}
}

func TestSegmentStoreRemove(t *testing.T) {
	st, rel := segStoreFixture(t)
	if err := st.WriteSegment("k", rel.Segments[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("k"); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("k"); err != nil {
		t.Fatalf("removing a missing file must be a no-op, got %v", err)
	}
}

// TestSaveFileDurable covers the persist.SaveFile hardening: the snapshot
// lands atomically (no .tmp residue) and survives a LoadFile round trip.
func TestSaveFileDurable(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 3), 500, 5)
	rel := storage.BuildColumnMajorSeg(tb, 100)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.h2o")
	if err := SaveFile(path, rel); err != nil {
		t.Fatal(err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(matches) != 0 {
		t.Fatalf("temporary files left behind: %v", matches)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != rel.Rows {
		t.Fatalf("rows %d != %d", got.Rows, rel.Rows)
	}
}
