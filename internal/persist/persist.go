// Package persist writes segments to disk in one record format (record.go)
// and wraps it two ways. Spill files (segstore.go) hold one record each, so
// the tier manager can page sealed segments out and back individually.
// Snapshots hold a whole relation — schema, segments and each segment's
// full set of column groups, i.e. the (possibly mixed, per-segment) layout
// the engine has evolved. A restored relation resumes with the adapted
// physical design instead of re-learning it, which is how a deployment
// survives restarts without losing the benefit of past adaptation.
//
// Snapshot format, H2OSNAP3 (all words little-endian uint64):
//
//	magic    "H2OSNAP3"  (8 bytes; everything after is words)
//	schema   name, attribute count, attribute names
//	         (each string: byte length, then its bytes packed 8 per word)
//	segcap   segment capacity
//	nsegs    segment count, then one segment record per segment
//	digest   digestWords over every word above
//	checksum order-independent content checksum (storage.Checksum)
//
// Zone maps are not serialized: they are rebuilt in one pass per group at
// load time, exactly as a reorganization rebuilds them. The relation
// version counter (storage.Relation.Version) is deliberately not
// serialized either: a restored relation draws a fresh version from the
// process-wide clock, so result-cache entries (internal/server) keyed
// against whatever relation it replaces can never be served for it.
package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"h2o/internal/data"
	"h2o/internal/storage"
)

var snapMagic = [8]byte{'H', '2', 'O', 'S', 'N', 'A', 'P', '3'}

// Save writes a snapshot of rel to w. Each segment is pinned at
// encoded-or-better residency while its record is written, so saving
// never decodes: a group's cached encoding is written as it is, a flat
// group is encoded into a transient copy that is not cached, and a
// spilled segment is read from its spill file (mmap-served where
// supported) and stays spilled in heap terms.
func Save(w io.Writer, rel *storage.Relation) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.Write(snapMagic[:])
	words := appendString(nil, rel.Schema.Name)
	words = append(words, uint64(rel.Schema.NumAttrs()))
	for _, a := range rel.Schema.Attrs {
		words = appendString(words, a)
	}
	words = append(words, uint64(rel.SegCap), uint64(len(rel.Segments)))
	digest, n := digestWords(0, 0, words), len(words)
	putWords(bw, words...)
	for si, seg := range rel.Segments {
		var err error
		if words, err = snapshotRecord(words[:0], seg); err != nil {
			return fmt.Errorf("persist: segment %d: %w", si, err)
		}
		digest, n = digestWords(digest, n, words), n+len(words)
		putWords(bw, words...)
	}
	sum, err := storage.Checksum(rel, allAttrs(rel.Schema.NumAttrs()))
	if err != nil {
		return fmt.Errorf("persist: checksum: %w", err)
	}
	putWords(bw, digest, sum)
	return bw.Flush()
}

// snapshotRecord appends seg's record to words, holding the segment
// pinned so a spilled segment is faulted in (and cannot be evicted) for
// the duration of the write.
func snapshotRecord(words []uint64, seg *storage.Segment) ([]uint64, error) {
	if _, err := seg.AcquireEncoded(); err != nil {
		return words, err
	}
	defer seg.Release()
	return appendRecord(words, seg, func(g *storage.ColumnGroup) *storage.GroupEncoding {
		if e := g.CachedEncoding(); e != nil {
			return e
		}
		return storage.EncodeGroup(g)
	})
}

// Load reads a snapshot and reconstructs the relation — segment structure,
// per-segment layouts and all — verifying the digest and the checksum.
func Load(r io.Reader) (*storage.Relation, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	if err := checkHeader(raw, snapMagic, "snapshot"); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return loadWords(bytesToWords(raw[8:]))
}

// loadWords rebuilds a relation from a snapshot's words after the magic.
// Every record is parsed and validated and the digest checked before any
// group is decoded, so the only allocations that grow with a record's
// declared row counts are made for a file whose digest holds.
func loadWords(words []uint64) (*storage.Relation, error) {
	if len(words) < 2 {
		return nil, errors.New("persist: truncated snapshot")
	}
	body, digest, sum := words[:len(words)-2], words[len(words)-2], words[len(words)-1]
	cur := wordCursor{w: body}
	schema, segCap, nSegs, err := readSnapshotHeader(&cur)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot header: %w", err)
	}
	type segRecord struct {
		rows   int
		groups []recordGroup
	}
	recs := make([]segRecord, nSegs)
	nAttrs := uint64(schema.NumAttrs())
	for si := range recs {
		rows, groups, err := parseRecord(&cur, segCap, 4*nAttrs, nAttrs, false)
		if err != nil {
			return nil, fmt.Errorf("persist: segment %d: %w", si, err)
		}
		recs[si] = segRecord{rows: rows, groups: groups}
	}
	if cur.left() != 0 {
		return nil, fmt.Errorf("persist: %d trailing words after the last segment", cur.left())
	}
	if digestWords(0, 0, body) != digest {
		return nil, errors.New("persist: content digest mismatch (snapshot corrupt)")
	}
	segGroups := make([][]*storage.ColumnGroup, nSegs)
	for si, rec := range recs {
		groups := make([]*storage.ColumnGroup, len(rec.groups))
		for gi, rg := range rec.groups {
			ids := make([]data.AttrID, len(rg.attrs))
			for i, a := range rg.attrs {
				ids[i] = data.AttrID(a)
			}
			// A zero-row group takes the record's rows; DecodeInto
			// allocates and fills its data.
			g := storage.NewGroupPadded(ids, 0, rg.stride-len(ids))
			g.Rows = rec.rows
			rg.enc.DecodeInto(g)
			groups[gi] = g
		}
		segGroups[si] = groups
	}
	rel, err := storage.AssembleRelation(schema, int(segCap), segGroups)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	got, err := storage.Checksum(rel, allAttrs(schema.NumAttrs()))
	if err != nil {
		return nil, fmt.Errorf("persist: checksum: %w", err)
	}
	if got != sum {
		return nil, errors.New("persist: content checksum mismatch (snapshot corrupt)")
	}
	return rel, nil
}

// readSnapshotHeader reads the schema, the segment capacity and the
// segment count, bounding each count by the words left.
func readSnapshotHeader(cur *wordCursor) (schema *data.Schema, segCap, nSegs uint64, err error) {
	name, err := cur.string()
	if err != nil {
		return nil, 0, 0, err
	}
	nAttrs, err := cur.next()
	if err != nil {
		return nil, 0, 0, err
	}
	if nAttrs == 0 || nAttrs > 1<<20 || nAttrs > uint64(cur.left()) {
		return nil, 0, 0, fmt.Errorf("implausible attribute count %d", nAttrs)
	}
	attrs := make([]string, nAttrs)
	for i := range attrs {
		if attrs[i], err = cur.string(); err != nil {
			return nil, 0, 0, err
		}
	}
	if schema, err = data.NewSchema(name, attrs); err != nil {
		return nil, 0, 0, err
	}
	if segCap, err = cur.next(); err != nil {
		return nil, 0, 0, err
	}
	if segCap == 0 || segCap > 1<<31 {
		return nil, 0, 0, fmt.Errorf("implausible segment capacity %d", segCap)
	}
	if nSegs, err = cur.next(); err != nil {
		return nil, 0, 0, err
	}
	// A record takes at least six words: rows, group count, and one group's
	// width, attribute id, stride and block count.
	if nSegs == 0 || nSegs > uint64(cur.left())/6 {
		return nil, 0, 0, fmt.Errorf("implausible segment count %d", nSegs)
	}
	return schema, segCap, nSegs, nil
}

// SaveFile snapshots rel to path atomically: the snapshot is written to a
// temporary file, fsynced, and renamed into place, so a crash mid-save can
// never leave a torn snapshot at path.
func SaveFile(path string, rel *storage.Relation) error {
	return atomicWriteFile(path, func(f *os.File) error {
		return Save(f, rel)
	})
}

// LoadFile restores a relation from path, reading it through the same
// word reader as a spill-file fault (mmap where supported). Every group
// is decoded into fresh heap data, so nothing aliases the file once
// LoadFile returns, and the file is unmapped or closed on every path.
func LoadFile(path string) (*storage.Relation, error) {
	words, release, err := readWords(path, snapMagic, "snapshot")
	if err != nil {
		return nil, fmt.Errorf("persist: loading %s: %w", path, err)
	}
	if release != nil {
		defer release()
	}
	rel, err := loadWords(words)
	if err != nil {
		return nil, fmt.Errorf("persist: loading %s: %w", path, err)
	}
	return rel, nil
}

func allAttrs(n int) []data.AttrID {
	out := make([]data.AttrID, n)
	for i := range out {
		out[i] = i
	}
	return out
}
