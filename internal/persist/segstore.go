// Segment files: the disk tier behind segment spilling. A SegmentStore
// writes each sealed segment as its own standalone file, so the eviction
// manager can spill and fault segments individually. There is one record
// format (record.go); spill files and snapshots wrap it. A spill file,
// H2OSEG02, wraps one record:
//
//	magic   "H2OSEG02"  (8 bytes; everything after is uint64 words)
//	version             segment version at write time (staleness check)
//	record              the segment's encoded record
//	digest              digestWords over the version and record words
//
// The record holds the segment's *encoded* form (storage/encode.go),
// typically several times smaller than the flat data. Because the words
// start at offset 8, a read-only mmap of the file can be aliased as
// []uint64 in place: faults then page at 4K granularity out of the OS
// page cache instead of copying the whole segment onto the Go heap, and
// block payloads the scan skips are never touched. The content digest is
// verified on the first fault of each (key, version); later faults of the
// same file alias it directly, keeping re-faults lazy. Platforms without
// mmap (and big-endian hosts) read the words into one heap buffer instead
// — same format, same validation, one allocation.
//
// Spill files are read back only by the tier manager that wrote them, in
// the same process, so the format carries no history: any other magic is
// rejected.
//
// Zone maps are not written: they stay resident in the segment skeleton
// while the data is spilled, which is what keeps pruning free of I/O.
package persist

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"h2o/internal/data"
	"h2o/internal/storage"
)

var segFileMagic = [8]byte{'H', '2', 'O', 'S', 'E', 'G', '0', '2'}

// SegmentStore reads and writes individual sealed segments under one
// directory. It is safe for concurrent use on distinct keys; callers (the
// eviction manager) serialize writes against reads of the same key
// through segment pins. Scratch buffers for the fault path are pooled
// per store, so steady-state faults allocate only the buffers the
// segment retains.
type SegmentStore struct {
	dir string

	// payloads pools write-path payload buffers.
	payloads sync.Pool

	// verified records, per key, the file version whose digest has been
	// checked, so re-faults of an unchanged spill file skip the full-file
	// checksum walk (and, on the mmap path, stay lazy).
	mu       sync.Mutex
	verified map[string]uint64
}

// NewSegmentStore creates (if needed) the spill directory and returns a
// store over it.
func NewSegmentStore(dir string) (*SegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: segment store: %w", err)
	}
	st := &SegmentStore{dir: dir, verified: make(map[string]uint64)}
	st.payloads.New = func() any { b := make([]uint64, 0, 64*1024); return &b }
	return st, nil
}

// Dir returns the store's directory.
func (st *SegmentStore) Dir() string { return st.dir }

// Path returns the file path a key maps to.
func (st *SegmentStore) Path(key string) string {
	return filepath.Join(st.dir, key+".h2oseg")
}

// WriteSegment persists seg under key in the encoded H2OSEG02 format,
// atomically: the bytes are written to a temporary file, fsynced, and
// renamed into place, so a crash mid-spill can never leave a torn segment
// file that later faults a scan. The caller must hold the segment pinned
// at encoded-or-better residency (AcquireEncoded) for the duration; the
// group encodings are built here if not already cached, and cached for
// the eventual demotion.
func (st *SegmentStore) WriteSegment(key string, seg *storage.Segment) error {
	bufp := st.payloads.Get().(*[]uint64)
	payload := (*bufp)[:0]
	defer func() { *bufp = payload[:0]; st.payloads.Put(bufp) }()

	payload, err := appendRecord(append(payload, seg.Version()), seg, (*storage.ColumnGroup).Encoding)
	if err != nil {
		return fmt.Errorf("persist: segment %s: %w", key, err)
	}
	st.mu.Lock()
	delete(st.verified, key) // the first fault of the new file re-verifies
	st.mu.Unlock()
	return atomicWriteFile(st.Path(key), func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		bw.Write(segFileMagic[:])
		putWords(bw, payload...)
		putWords(bw, digestWords(0, 0, payload))
		return bw.Flush()
	})
}

// ReadSegment faults key back into seg, installing the encoded form on
// every group (mmap-aliased where supported). The on-disk metadata must
// match the in-memory skeleton exactly — magic, attribute sets, strides,
// row count and the segment version recorded at spill time — and the
// content digest must verify on the first read of each file version. Any
// mismatch (torn file, stale spill left over from before a reorganization,
// bit rot) returns an error without touching the segment, so a failed
// fault can be retried or surfaced cleanly by the scan that triggered it.
func (st *SegmentStore) ReadSegment(key string, seg *storage.Segment) error {
	words, release, err := readWords(st.Path(key), segFileMagic, "segment file")
	if err != nil {
		return fmt.Errorf("persist: segment %s: %w", key, err)
	}
	if err := st.installSegment(key, seg, words, release); err != nil {
		if release != nil {
			release()
		}
		return err
	}
	return nil
}

// installSegment validates the file's words against the segment skeleton
// and installs one GroupEncoding per group. words holds everything after
// the magic, trailing digest included. A non-nil release means the words
// alias a mapping: the block payloads alias it and release is registered
// on the segment; on error the caller releases.
func (st *SegmentStore) installSegment(key string, seg *storage.Segment, words []uint64, release func()) error {
	payload, want := words[:len(words)-1], words[len(words)-1]
	if len(payload) < 3 {
		return fmt.Errorf("persist: segment %s: truncated segment file", key)
	}
	ver := payload[0]
	if ver != seg.Version() {
		return fmt.Errorf("persist: segment %s: spill file version %d is stale (segment at %d)", key, ver, seg.Version())
	}
	st.mu.Lock()
	checked := st.verified[key] == ver
	st.mu.Unlock()
	if !checked {
		if got := digestWords(0, 0, payload); got != want {
			return fmt.Errorf("persist: segment %s: content digest mismatch (spill file corrupt)", key)
		}
		st.mu.Lock()
		st.verified[key] = ver
		st.mu.Unlock()
	}
	// Parse and validate everything first; install only on full success so
	// a failed fault leaves the segment untouched. The skeleton bounds the
	// parse and must then match it exactly.
	cur := wordCursor{w: payload[1:]}
	rows, groups, err := parseRecord(&cur, uint64(seg.Rows), uint64(len(seg.Groups)), math.MaxInt32, release != nil)
	if err != nil {
		return fmt.Errorf("persist: segment %s: %w", key, err)
	}
	if cur.left() != 0 {
		return fmt.Errorf("persist: segment %s: %d trailing words after the record", key, cur.left())
	}
	if rows != seg.Rows || len(groups) != len(seg.Groups) {
		return fmt.Errorf("persist: segment %s: file has %d rows in %d groups, segment has %d in %d", key, rows, len(groups), seg.Rows, len(seg.Groups))
	}
	for gi, g := range seg.Groups {
		rg := groups[gi]
		if len(rg.attrs) != len(g.Attrs) || rg.stride != g.Stride {
			return fmt.Errorf("persist: segment %s group %d: file width %d stride %d, segment width %d stride %d", key, gi, len(rg.attrs), rg.stride, len(g.Attrs), g.Stride)
		}
		for i, a := range g.Attrs {
			if data.AttrID(rg.attrs[i]) != a {
				return fmt.Errorf("persist: segment %s group %d: attribute %d is %d on disk, %d in memory", key, gi, i, rg.attrs[i], a)
			}
		}
	}
	for gi, g := range seg.Groups {
		g.SetEncoding(groups[gi].enc)
	}
	if release != nil {
		seg.SetMapRelease(release)
	}
	return nil
}

// Remove deletes a key's spill file; a missing file is not an error.
func (st *SegmentStore) Remove(key string) error {
	st.mu.Lock()
	delete(st.verified, key)
	st.mu.Unlock()
	err := os.Remove(st.Path(key))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
