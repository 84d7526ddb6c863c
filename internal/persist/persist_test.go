package persist

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"h2o/internal/data"
	"h2o/internal/storage"
)

func sampleRelation(t testing.TB) (*data.Table, *storage.Relation) {
	t.Helper()
	tb := data.Generate(data.SyntheticSchema("R", 8), 500, 31)
	rel, err := storage.BuildPartitioned(tb, [][]data.AttrID{{0, 1, 2}, {3, 4}, {5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	// An overlapping extra group and a padded group, to exercise the full
	// layout space.
	extra, err := storage.Stitch(rel, []data.AttrID{1, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AddGroup(extra); err != nil {
		t.Fatal(err)
	}
	padded := storage.BuildGroupPadded(tb, []data.AttrID{2, 5}, 3)
	if err := rel.AddGroup(padded); err != nil {
		t.Fatal(err)
	}
	return tb, rel
}

// codecTable is time-series data whose columns pick every codec the
// encoder chooses: a0 counts up (delta), a1 is uniform in the synthetic
// domain (FOR), a2 steps every 1000 rows (RLE) and a3 spans all 64 bits
// (delta at full width).
func codecTable(rows int) *data.Table {
	tb := data.GenerateTimeSeries(data.SyntheticSchema("T", 4), rows, 7)
	for r := 0; r < rows; r++ {
		tb.Cols[2][r] = data.Value(r / 1000)
		h := uint64(r+1) * 0x9e3779b97f4a7c15
		h ^= h >> 31
		tb.Cols[3][r] = data.Value(h * 0xbf58476d1ce4e5b9)
	}
	return tb
}

// snapshot saves rel and returns the bytes.
func snapshot(t testing.TB, rel *storage.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, rel); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameRelation compares content, layout and per-segment rows.
func requireSameRelation(t *testing.T, got, want *storage.Relation) {
	t.Helper()
	all := allAttrs(want.Schema.NumAttrs())
	gs, err := storage.Checksum(got, all)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := storage.Checksum(want, all)
	if err != nil {
		t.Fatal(err)
	}
	if gs != ws {
		t.Fatal("content checksum changed across the round trip")
	}
	if got.LayoutSignature() != want.LayoutSignature() {
		t.Fatalf("layout changed: %s vs %s", got.LayoutSignature(), want.LayoutSignature())
	}
	if got.Rows != want.Rows || got.SegCap != want.SegCap || len(got.Segments) != len(want.Segments) {
		t.Fatalf("shape changed: %d rows cap %d in %d segments, want %d cap %d in %d",
			got.Rows, got.SegCap, len(got.Segments), want.Rows, want.SegCap, len(want.Segments))
	}
	for si, seg := range got.Segments {
		if seg.Rows != want.Segments[si].Rows {
			t.Fatalf("segment %d has %d rows, want %d", si, seg.Rows, want.Segments[si].Rows)
		}
		if !seg.Resident() {
			t.Fatalf("loaded segment %d is not resident", si)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tb, rel := sampleRelation(t)
	got, err := Load(bytes.NewReader(snapshot(t, rel)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Name != "R" || got.Schema.NumAttrs() != 8 || got.Rows != 500 {
		t.Fatalf("metadata wrong: %v rows=%d", got.Schema, got.Rows)
	}
	if len(got.Segments) != len(rel.Segments) {
		t.Fatalf("segments = %d, want %d", len(got.Segments), len(rel.Segments))
	}
	if len(got.Segments[0].Groups) != len(rel.Segments[0].Groups) {
		t.Fatalf("groups = %d, want %d", len(got.Segments[0].Groups), len(rel.Segments[0].Groups))
	}
	if got.LayoutSignature() != rel.LayoutSignature() {
		t.Fatalf("layout changed: %s vs %s", got.LayoutSignature(), rel.LayoutSignature())
	}
	// Padding survives.
	pg, ok := got.ExactGroup([]data.AttrID{2, 5})
	if !ok || pg.Stride != 5 {
		t.Fatalf("padded group lost its stride: %+v", pg)
	}
	// Every value is intact.
	for r := 0; r < got.Rows; r++ {
		for a := 0; a < 8; a++ {
			g, err := got.GroupFor(a)
			if err != nil {
				t.Fatal(err)
			}
			if g.Value(r, a) != tb.Value(r, a) {
				t.Fatalf("value mismatch at (%d,%d)", r, a)
			}
		}
	}
}

// TestRoundTripTables round-trips relations across the edges of the
// segment and block sizes, mixed and padded layouts, and every codec the
// encoder picks.
func TestRoundTripTables(t *testing.T) {
	cases := []struct {
		name string
		rel  func(t *testing.T) *storage.Relation
	}{
		{"empty", func(*testing.T) *storage.Relation { return storage.BuildColumnMajorSeg(codecTable(0), 4096) }},
		{"one-row", func(*testing.T) *storage.Relation { return storage.BuildRowMajorSeg(codecTable(1), true, 4096) }},
		{"one-block", func(*testing.T) *storage.Relation { return storage.BuildColumnMajorSeg(codecTable(4096), 8192) }},
		{"block-plus-one", func(*testing.T) *storage.Relation { return storage.BuildColumnMajorSeg(codecTable(4097), 8192) }},
		{"full-segment-plus-one", func(*testing.T) *storage.Relation { return storage.BuildColumnMajorSeg(codecTable(4097), 4096) }},
		{"partial-tail", func(t *testing.T) *storage.Relation {
			rel := storage.BuildColumnMajorSeg(codecTable(3*8192+1500), 8192)
			// Adapt one segment only, so the layout is mixed.
			g, err := storage.StitchSeg(rel.Segments[1], []data.AttrID{0, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := rel.Segments[1].AddGroup(g); err != nil {
				t.Fatal(err)
			}
			return rel
		}},
		{"sample-overlapping-padded", func(t *testing.T) *storage.Relation { _, rel := sampleRelation(t); return rel }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rel := c.rel(t)
			got, err := Load(bytes.NewReader(snapshot(t, rel)))
			if err != nil {
				t.Fatal(err)
			}
			requireSameRelation(t, got, rel)
		})
	}
}

// TestRoundTripEveryCodec writes raw, FOR, delta and RLE blocks and
// checks they survive a file round trip. The encoder never picks raw (a
// 64-bit delta block costs one word less), so segment 0 is given raw
// blocks by hand and demoted to them.
func TestRoundTripEveryCodec(t *testing.T) {
	rel := storage.BuildColumnMajorSeg(codecTable(3*4096+7), 8192)
	want := storage.BuildColumnMajorSeg(codecTable(3*4096+7), 8192)
	for _, g := range rel.Segments[0].Groups {
		e := storage.EncodeGroup(g)
		for _, c := range e.Cols {
			for bi := range c.Blocks {
				b := &c.Blocks[bi]
				vals := b.Decode(make([]data.Value, b.Rows))
				b.Kind, b.Bits, b.Runs, b.Base, b.DBase = storage.EncRaw, 0, 0, 0, 0
				b.Words = make([]uint64, len(vals))
				for i, v := range vals {
					b.Words[i] = uint64(v)
				}
			}
		}
		g.SetEncoding(e)
	}
	if !rel.Segments[0].DemoteToEncoded() {
		t.Fatal("demote failed")
	}
	seen := map[storage.EncKind]bool{}
	for _, seg := range rel.Segments {
		for _, g := range seg.Groups {
			e := g.CachedEncoding()
			if e == nil {
				e = storage.EncodeGroup(g)
			}
			for _, c := range e.Cols {
				for _, b := range c.Blocks {
					seen[b.Kind] = true
				}
			}
		}
	}
	for _, k := range []storage.EncKind{storage.EncRaw, storage.EncFOR, storage.EncDelta, storage.EncRLE} {
		if !seen[k] {
			t.Fatalf("codec %v never written; the table no longer covers every codec", k)
		}
	}
	path := filepath.Join(t.TempDir(), "codecs.h2o")
	if err := SaveFile(path, rel); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, got, want)
}

// TestSaveNeverDecodes: saving a relation whose sealed segments sit on the
// encoded rung writes their encodings as they are — the segments stay
// encoded — and a flat relation gains no cached encodings.
func TestSaveNeverDecodes(t *testing.T) {
	rel := storage.BuildColumnMajorSeg(codecTable(4*4096+10), 4096)
	want := snapshot(t, rel)
	for _, seg := range rel.Segments {
		for _, g := range seg.Groups {
			if g.CachedEncoding() != nil {
				t.Fatal("saving a flat relation cached an encoding")
			}
		}
	}
	for _, seg := range rel.Segments[:4] {
		if !seg.DemoteToEncoded() {
			t.Fatal("demote failed")
		}
	}
	if got := snapshot(t, rel); !bytes.Equal(got, want) {
		t.Fatal("snapshot of the demoted relation differs from the flat one")
	}
	for si, seg := range rel.Segments[:4] {
		if seg.State() != storage.SegEncoded {
			t.Fatalf("segment %d left the encoded rung while saving", si)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	_, rel := sampleRelation(t)
	path := filepath.Join(t.TempDir(), "rel.h2o")
	if err := SaveFile(path, rel); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LayoutSignature() != rel.LayoutSignature() {
		t.Fatal("file round trip changed layout")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.h2o")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	_, rel := sampleRelation(t)
	// A snapshot whose magic names the retired flat format, version 2.
	legacy := snapshot(t, rel)
	legacy[7] = '2'
	cases := map[string][]byte{
		"empty":        {},
		"short magic":  []byte("H2O"),
		"wrong magic":  []byte("NOTASNAP________________"),
		"version 2":    legacy,
		"magic only":   []byte("H2OSNAP3"),
		"no segments":  append([]byte("H2OSNAP3"), make([]byte, 64)...),
		"spill format": append([]byte("H2OSEG02"), make([]byte, 64)...),
	}
	for name, b := range cases {
		_, err := Load(bytes.NewReader(b))
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.HasPrefix(err.Error(), "persist:") {
			t.Errorf("%s: unexpected error %v", name, err)
		}
	}
	if _, err := Load(bytes.NewReader(legacy)); err == nil || !strings.Contains(err.Error(), "not an H2O snapshot") {
		t.Fatalf("version-2 snapshot: want a not-a-snapshot error, got %v", err)
	}
}

// TestLoadDetectsCorruption flips one byte of every word in turn and cuts
// the snapshot at every length: each must fail cleanly.
func TestLoadDetectsCorruption(t *testing.T) {
	rel := storage.BuildColumnMajorSeg(codecTable(700), 256)
	raw := snapshot(t, rel)
	for off := 8; off < len(raw); off += 8 {
		bent := append([]byte(nil), raw...)
		bent[off+(off/8)%8] ^= 0x5A
		if _, err := Load(bytes.NewReader(bent)); err == nil {
			t.Fatalf("flipped byte at %d accepted", off)
		} else if !strings.HasPrefix(err.Error(), "persist:") {
			t.Fatalf("flipped byte at %d: unexpected error %v", off, err)
		}
	}
	for n := 0; n < len(raw); n++ {
		if _, err := Load(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes accepted", n, len(raw))
		} else if !strings.HasPrefix(err.Error(), "persist:") {
			t.Fatalf("truncated to %d: unexpected error %v", n, err)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	_, rel := sampleRelation(t)
	if !bytes.Equal(snapshot(t, rel), snapshot(t, rel)) {
		t.Fatal("snapshots of the same relation differ")
	}
}

// FuzzLoad feeds arbitrary bytes to Load. It must never panic, hang or
// allocate beyond what the bytes describe, and must fail with a clean
// error; whatever it accepts must round-trip again unchanged.
func FuzzLoad(f *testing.F) {
	// Small seeds keep the minimization of new inputs quick.
	tb := data.Generate(data.SyntheticSchema("R", 3), 40, 5)
	rel, err := storage.BuildPartitioned(tb, [][]data.AttrID{{0, 1}, {2}})
	if err != nil {
		f.Fatal(err)
	}
	if err := rel.AddGroup(storage.BuildGroupPadded(tb, []data.AttrID{1, 2}, 1)); err != nil {
		f.Fatal(err)
	}
	valid := snapshot(f, rel)
	f.Add(valid)
	f.Add(snapshot(f, storage.BuildColumnMajorSeg(codecTable(50), 16)))
	for _, n := range []int{0, 8, 16, 40, len(valid) / 2, len(valid) - 16, len(valid) - 8} {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rel, err := Load(bytes.NewReader(raw))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "persist:") {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		again, err := Load(bytes.NewReader(snapshot(t, rel)))
		if err != nil {
			t.Fatalf("an accepted snapshot does not save and load again: %v", err)
		}
		requireSameRelation(t, again, rel)
	})
}
