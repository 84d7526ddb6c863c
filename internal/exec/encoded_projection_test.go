package exec

import (
	"fmt"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/persist"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// Encoded projections: StrategyEncoded must return exactly the generic
// interpreter's rows, in the same order, whatever residency its segments
// sit at. Segments here span several encoded blocks and end in a partial
// one, so block skipping, per-block selections and the last block's short
// row count are all on the path.

const (
	projSegCap = 2*storage.EncBlockRows + 1000 // two full blocks + a partial one
	projRows   = 3*projSegCap + 500            // three sealed segments + a flat tail
)

func projRange(attr data.AttrID, lo, hi data.Value) expr.Pred {
	return &expr.And{Terms: []expr.Pred{
		&expr.Cmp{Op: expr.Ge, L: &expr.Col{ID: attr}, R: &expr.Const{V: lo}},
		query.PredLt(attr, hi),
	}}
}

func withLimit(q *query.Query, n int) *query.Query {
	q.Limit = n
	return q
}

// projQueries are the projection shapes under test; attribute 0 holds the
// row position.
func projQueries() map[string]*query.Query {
	seg1Last := data.Value(projSegCap + 2*storage.EncBlockRows) // segment 1's partial last block
	return map[string]*query.Query{
		"old-rows-non-projected-pred": query.Projection("R", []data.AttrID{2, 3}, projRange(0, 1000, 1128)),
		"projected-pred-column":       query.Projection("R", []data.AttrID{0, 4}, projRange(0, 5000, 5300)),
		"no-predicate":                query.Projection("R", []data.AttrID{5, 1}, nil),
		"no-predicate-limit":          withLimit(query.Projection("R", []data.AttrID{5, 1}, nil), 5000),
		"empty-selection":             query.Projection("R", []data.AttrID{1}, projRange(0, 3000, 3000)),
		"partial-last-block":          query.Projection("R", []data.AttrID{1, 2, 1}, projRange(0, seg1Last-10, seg1Last+900)),
		"across-segments-refined": query.Projection("R", []data.AttrID{3}, &expr.And{Terms: []expr.Pred{
			projRange(0, projSegCap-700, 2*projSegCap+300), query.PredGt(1, 0)}}),
		"across-segments-limit": withLimit(query.Projection("R", []data.AttrID{4, 2},
			projRange(0, projSegCap-50, projRows)), 120),
		"whole-block-match-limit": withLimit(query.Projection("R", []data.AttrID{2},
			projRange(0, 0, 2*projSegCap)), 4100),
	}
}

// projResidency prepares a freshly built relation's residency.
type projResidency struct {
	name  string
	setup func(t *testing.T, rel *storage.Relation)
}

func sealed(rel *storage.Relation) []*storage.Segment {
	return rel.Segments[:len(rel.Segments)-1]
}

func encodeAll(seg *storage.Segment) {
	for _, g := range seg.Groups {
		g.Encoding()
	}
}

func projResidencies() []projResidency {
	return []projResidency{
		{"flat", func(*testing.T, *storage.Relation) {}},
		{"flat-encoded", func(_ *testing.T, rel *storage.Relation) {
			for _, seg := range sealed(rel) {
				encodeAll(seg)
			}
		}},
		{"demoted", func(t *testing.T, rel *storage.Relation) {
			for _, seg := range sealed(rel) {
				if !seg.DemoteToEncoded() {
					t.Fatal("demotion refused")
				}
			}
		}},
		{"half-encoded", func(t *testing.T, rel *storage.Relation) {
			if !rel.Segments[1].DemoteToEncoded() {
				t.Fatal("demotion refused")
			}
		}},
		{"spilled-mmap", func(t *testing.T, rel *storage.Relation) {
			store, err := persist.NewSegmentStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			keys := map[*storage.Segment]string{}
			for si, seg := range sealed(rel) {
				keys[seg] = fmt.Sprintf("s%d", si)
				if err := store.WriteSegment(keys[seg], seg); err != nil {
					t.Fatal(err)
				}
			}
			rel.SetLoader(func(seg *storage.Segment) error { return store.ReadSegment(keys[seg], seg) })
			for _, seg := range sealed(rel) {
				if !seg.Unload() {
					t.Fatal("unload refused")
				}
			}
		}},
		{"one-group-unencoded", func(t *testing.T, rel *storage.Relation) {
			// Only attribute 0's group carries an encoding: the projected
			// columns' groups have none, so every sealed segment must take
			// the flat fallback.
			for _, seg := range sealed(rel) {
				g, err := seg.GroupFor(0)
				if err != nil {
					t.Fatal(err)
				}
				g.Encoding()
			}
		}},
	}
}

// TestEncodedProjectionEquivalence compares StrategyEncoded with
// StrategyGeneric bit for bit, row order included, for every projection
// shape over every residency, on column-major and row-major layouts.
func TestEncodedProjectionEquivalence(t *testing.T) {
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), projRows, 77)
	ref := storage.BuildColumnMajorSeg(tb, projSegCap)
	layouts := map[string]func() *storage.Relation{
		"column": func() *storage.Relation { return storage.BuildColumnMajorSeg(tb, projSegCap) },
		"row":    func() *storage.Relation { return storage.BuildRowMajorSeg(tb, false, projSegCap) },
	}
	for lname, build := range layouts {
		for _, res := range projResidencies() {
			for qname, q := range projQueries() {
				want, err := Exec(ref, q, ExecOpts{Strategy: StrategyGeneric})
				if err != nil {
					t.Fatal(err)
				}
				want = trimLimit(q, want)
				rel := build()
				res.setup(t, rel)
				var st StrategyStats
				got, err := Exec(rel, q, ExecOpts{Strategy: StrategyEncoded, Stats: &st})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", lname, res.name, qname, err)
				}
				got = trimLimit(q, got)
				if !got.Equal(want) {
					t.Fatalf("%s/%s/%s: encoded projection diverged:\n got %d rows\nwant %d rows", lname, res.name, qname, got.Rows, want.Rows)
				}
				// Every pin the scan took was released: the sealed
				// segments can still be demoted.
				for si, seg := range sealed(rel) {
					if seg.State() == storage.SegResident {
						encodeAll(seg)
						if !seg.DemoteToEncoded() {
							t.Fatalf("%s/%s/%s: segment %d still pinned after the scan", lname, res.name, qname, si)
						}
					}
				}
				encodedRead := st.DecodeSkips > 0 || st.EncodedBytes > 0
				switch res.name {
				case "flat", "one-group-unencoded":
					// A row-major segment has one group: encoding it for
					// attribute 0 encodes every column.
					if encodedRead && (res.name == "flat" || lname == "column") {
						t.Fatalf("%s/%s/%s: no segment has the needed encodings, yet the scan read encoded blocks: %+v", lname, res.name, qname, st)
					}
				case "demoted", "spilled-mmap":
					if st.SegmentsScanned > 0 && !encodedRead {
						t.Fatalf("%s/%s/%s: encoded segments were read without the block kernel: %+v", lname, res.name, qname, st)
					}
				}
			}
		}
	}
}

// TestEncodedProjectionStaysEncoded: the projection over a demoted segment
// reads its blocks in place — the segment is still on the encoded rung
// afterwards — and skips the blocks its headers rule out.
func TestEncodedProjectionStaysEncoded(t *testing.T) {
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 6), projRows, 78)
	rel := storage.BuildColumnMajorSeg(tb, projSegCap)
	seg := rel.Segments[0]
	if !seg.DemoteToEncoded() {
		t.Fatal("demotion refused")
	}
	q := projQueries()["old-rows-non-projected-pred"]
	var st StrategyStats
	got, err := Exec(rel, q, ExecOpts{Strategy: StrategyEncoded, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 128 {
		t.Fatalf("got %d rows, want 128", got.Rows)
	}
	if seg.State() != storage.SegEncoded {
		t.Fatalf("segment left at state %v, want encoded", seg.State())
	}
	// Three blocks, one holding the window: the other two are skipped.
	if st.DecodeSkips != 2 || st.SegmentsScanned != 1 {
		t.Fatalf("stats %+v, want 2 decode skips over 1 segment", st)
	}
}

// BenchmarkExecEncodedProjection times 128 old rows projected from an
// encoded segment two ways: the encoded pin reads one block in place;
// the flat pin (the hybrid strategy) decodes the whole segment first, and
// the segment is demoted again after every scan, as an over-budget
// engine's eviction pass does.
func BenchmarkExecEncodedProjection(b *testing.B) {
	const segCap = 65_536
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 8), 2*segCap, 79)
	q := query.Projection("R", []data.AttrID{3, 5}, projRange(0, 20_000, 20_128))
	for _, c := range []struct {
		name     string
		strategy Strategy
	}{{"encoded-pin", StrategyEncoded}, {"flat-pin", StrategyHybrid}} {
		b.Run(c.name, func(b *testing.B) {
			rel := storage.BuildColumnMajorSeg(tb, segCap)
			seg := rel.Segments[0]
			if !seg.DemoteToEncoded() {
				b.Fatal("demotion refused")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Exec(rel, q, ExecOpts{Strategy: c.strategy})
				if err != nil || res.Rows != 128 {
					b.Fatalf("rows=%v err=%v", res, err)
				}
				if seg.State() == storage.SegResident && !seg.DemoteToEncoded() {
					b.Fatal("demotion refused")
				}
			}
		})
	}
}
