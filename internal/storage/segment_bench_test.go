package storage

import (
	"fmt"
	"testing"

	"h2o/internal/data"
)

// These benchmarks demonstrate the segmented storage contract: appending to
// the tail and reorganizing one hot segment cost O(segment size) and stay
// flat as the relation grows, while a full-relation reorganization grows
// linearly. Run with:
//
//	go test -run '^$' -bench 'Segment|AppendTail' ./internal/storage/
//
// and compare ns/op across the /rows= variants.

const benchSegCap = 64 * 1024

func benchRelation(b *testing.B, rows, attrs int) (*data.Table, *Relation) {
	b.Helper()
	tb := data.Generate(data.SyntheticSchema("R", attrs), rows, 7)
	return tb, BuildColumnMajorSeg(tb, benchSegCap)
}

// BenchmarkAppendTail appends single tuples. ns/op must be flat across
// relation sizes: only the tail segment is touched, never the sealed ones.
func BenchmarkAppendTail(b *testing.B) {
	for _, rows := range []int{benchSegCap, 4 * benchSegCap, 16 * benchSegCap} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			_, rel := benchRelation(b, rows, 4)
			tuple := []data.Value{1, 2, 3, 4}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rel.Append(tuple); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReorgHotSegment stitches a group into ONE segment. ns/op must be
// flat across relation sizes: the stitch reads and writes one segment.
func BenchmarkReorgHotSegment(b *testing.B) {
	attrs := []data.AttrID{0, 1}
	for _, rows := range []int{benchSegCap, 4 * benchSegCap, 16 * benchSegCap} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			_, rel := benchRelation(b, rows, 4)
			hot := rel.Segments[len(rel.Segments)-1]
			b.SetBytes(int64(hot.Rows) * int64(len(attrs)) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := StitchSeg(hot, attrs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReorgFullRelation is the contrast case: stitching a full-length
// group scales linearly with relation size. The gap between this series and
// BenchmarkReorgHotSegment is exactly what incremental adaptation saves.
func BenchmarkReorgFullRelation(b *testing.B) {
	attrs := []data.AttrID{0, 1}
	for _, rows := range []int{benchSegCap, 4 * benchSegCap, 16 * benchSegCap} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			_, rel := benchRelation(b, rows, 4)
			b.SetBytes(int64(rows) * int64(len(attrs)) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Stitch(rel, attrs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendBatchTail appends 1000-tuple batches; like single appends,
// throughput must not depend on how many sealed segments sit below the tail.
// The batch=64 cases append the serving workloads' 64-row batches to a
// half-full tail, where per-batch cost must track the batch, not the tail;
// attrs=100 is the wide table's shape, one column group per attribute.
func BenchmarkAppendBatchTail(b *testing.B) {
	mkBatch := func(n, attrs int) [][]data.Value {
		batch := make([][]data.Value, n)
		for i := range batch {
			batch[i] = make([]data.Value, attrs)
			for a := range batch[i] {
				batch[i][a] = data.Value(i + a)
			}
		}
		return batch
	}
	for _, c := range []struct {
		name  string
		rows  int
		batch [][]data.Value
	}{
		{fmt.Sprintf("rows=%d", benchSegCap), benchSegCap, mkBatch(1000, 4)},
		{fmt.Sprintf("rows=%d", 16*benchSegCap), 16 * benchSegCap, mkBatch(1000, 4)},
		{fmt.Sprintf("rows=%d,batch=64", benchSegCap+benchSegCap/2), benchSegCap + benchSegCap/2, mkBatch(64, 4)},
		{fmt.Sprintf("rows=%d,batch=64,attrs=100", benchSegCap/2), benchSegCap / 2, mkBatch(64, 100)},
	} {
		b.Run(c.name, func(b *testing.B) {
			attrs := len(c.batch[0])
			_, rel := benchRelation(b, c.rows, attrs)
			b.SetBytes(int64(len(c.batch)) * int64(attrs) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rel.AppendBatch(c.batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
