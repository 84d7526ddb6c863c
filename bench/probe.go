package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"h2o"
	"h2o/internal/persist"
	"h2o/internal/storage"
)

// probes measures the persist and residency layers directly, after the
// traced run: a scratch relation over the first sealed segments of the
// workload's main table is written to a scratch SegmentStore, unloaded, and
// faulted back in through Segment.Acquire. The scratch copy keeps the probe
// from moving the residency state the run's own counters describe.
func (t *traced) probes(rep *report) error {
	src := t.e.tables[t.e.w.tables[0]]
	segCap := segCapFor(t.e.cfg.scale)
	// Up to 8 sealed segments, but no more than 64 MiB of flat data: a
	// 100-attribute segment is 50 MiB on its own.
	segBytes := segCap * len(src.Cols) * 8
	n := 8
	if max := (64 << 20) / segBytes; max < n {
		n = max
	}
	if sealed := src.Rows / segCap; sealed < n {
		n = sealed
	}
	if n < 1 {
		n = 1
	}
	rows := n*segCap + 1 // one row of tail, so the n segments before it are sealed
	if rows > src.Rows {
		rows = src.Rows
	}
	sub := &h2o.Table{Schema: src.Schema, Rows: rows, Cols: make([][]int64, len(src.Cols))}
	for a := range sub.Cols {
		sub.Cols[a] = src.Cols[a][:rows]
	}
	rel := storage.BuildColumnMajorSeg(sub, segCap)
	store, err := persist.NewSegmentStore(filepath.Join(t.e.tmp, "probe"))
	if err != nil {
		return err
	}
	keys := make(map[*storage.Segment]string)
	var writes, reads, faults []int64
	rel.SetLoader(func(seg *storage.Segment) error {
		t0 := time.Now()
		err := store.ReadSegment(keys[seg], seg)
		reads = append(reads, time.Since(t0).Nanoseconds())
		return err
	})
	var fileBytes, flatBytes int64
	sealed := rel.Segments[:len(rel.Segments)-1]
	for i, seg := range sealed {
		keys[seg] = fmt.Sprintf("probe-%03d", i)
		flatBytes += seg.Bytes()
		if _, err := seg.AcquireEncoded(); err != nil {
			return err
		}
		t0 := time.Now()
		err := store.WriteSegment(keys[seg], seg)
		writes = append(writes, time.Since(t0).Nanoseconds())
		seg.Release()
		if err != nil {
			return err
		}
		if fi, err := os.Stat(store.Path(keys[seg])); err == nil {
			fileBytes += fi.Size()
		}
	}
	for _, seg := range sealed {
		if !seg.Unload() {
			return fmt.Errorf("probe: segment would not unload")
		}
		t0 := time.Now()
		_, err := seg.Acquire()
		faults = append(faults, time.Since(t0).Nanoseconds())
		if err != nil {
			return err
		}
		seg.Release()
	}
	for _, seg := range sealed {
		seg.ReleaseMapping()
	}
	set := func(name string, vals []int64) {
		rep.set(perLayer, name, quantileOf(vals, 0.5)/1e3)
		rep.Samples[name] = len(vals)
	}
	set("persist.write_seg_us_p50", writes)
	set("persist.read_seg_us_p50", reads)
	set("storage.fault_us_p50", faults)
	rep.set(perLayer, "persist.file_bytes_per_flat_byte", ratio(float64(fileBytes), float64(flatBytes)))
	return nil
}
