// Segment files: the disk tier behind segment spilling. Where the H2OSNAP2
// snapshot (persist.go) serializes a whole relation, a SegmentStore writes
// each sealed segment as its own standalone file, so the eviction manager
// can spill and fault segments individually.
//
// The format, H2OSEG02, stores the segment's *encoded* form
// (storage/encode.go) — typically several times smaller than the flat
// data — as a flat little-endian uint64 payload:
//
//	magic   "H2OSEG02"  (8 bytes; everything after is uint64 words)
//	version             segment version at write time (staleness check)
//	rows
//	groups  count, then per group:
//	          nattrs, attr ids...
//	          stride
//	          per attribute (column): nblocks, then per block:
//	            kind, rows, bits, runs, min, max, sum, base, dbase,
//	            nwords, payload words...
//	digest              position-mixed checksum over all payload words
//
// Because the payload is pure 8-aligned words starting at offset 8, a
// read-only mmap of the file can be aliased as []uint64 in place: faults
// then page at 4K granularity out of the OS page cache instead of copying
// the whole segment onto the Go heap, and block payloads the scan skips
// are never touched. The content digest is verified on the first fault of
// each (key, version); later faults of the same file alias it directly,
// keeping re-faults lazy. Platforms without mmap (and big-endian hosts)
// read the words into one heap buffer instead — same format, same
// validation, one allocation.
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
	"os"
	"path/filepath"
	"sync"

	"h2o/internal/data"
	"h2o/internal/storage"
)

var segFileMagic = [8]byte{'H', '2', 'O', 'S', 'E', 'G', '0', '2'}

// segBlockHeaderWords is the fixed per-block header size.
const segBlockHeaderWords = 10

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

	payload = append(payload, seg.Version(), uint64(seg.Rows), uint64(len(seg.Groups)))
	for gi, g := range seg.Groups {
		e := g.Encoding()
		if e == nil {
			return fmt.Errorf("persist: segment %s group %d has neither data nor encoding", key, gi)
		}
		payload = append(payload, uint64(len(g.Attrs)))
		for _, a := range g.Attrs {
			payload = append(payload, uint64(a))
		}
		payload = append(payload, uint64(g.Stride))
		for _, c := range e.Cols {
			payload = append(payload, uint64(len(c.Blocks)))
			for bi := range c.Blocks {
				b := &c.Blocks[bi]
				payload = append(payload,
					uint64(b.Kind), uint64(b.Rows), uint64(b.Bits), uint64(b.Runs),
					uint64(b.Min), uint64(b.Max), uint64(b.Sum),
					uint64(b.Base), uint64(b.DBase), uint64(len(b.Words)))
				payload = append(payload, b.Words...)
			}
		}
	}
	st.mu.Lock()
	delete(st.verified, key) // the first fault of the new file re-verifies
	st.mu.Unlock()
	return atomicWriteFile(st.Path(key), func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		if _, err := bw.Write(segFileMagic[:]); err != nil {
			return err
		}
		for _, w := range payload {
			if err := writeU64(bw, w); err != nil {
				return err
			}
		}
		if err := writeU64(bw, payloadDigest(payload)); err != nil {
			return err
		}
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
	if mmapSupported() {
		b, release, err := mmapFile(st.Path(key))
		if err != nil {
			return err
		}
		if err := checkSegHeader(key, b); err != nil {
			release()
			return err
		}
		if err := st.installSegment(key, seg, aliasWords(b[8:]), true, release); err != nil {
			release()
			return err
		}
		return nil
	}
	raw, err := os.ReadFile(st.Path(key))
	if err != nil {
		return err
	}
	if err := checkSegHeader(key, raw); err != nil {
		return err
	}
	words := make([]uint64, (len(raw)-8)/8)
	for i := range words {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(raw[8+i*8+j]) << (8 * j)
		}
		words[i] = w
	}
	return st.installSegment(key, seg, words, false, nil)
}

// checkSegHeader checks that b, a whole segment file, starts with the
// magic and holds at least one payload word and the digest, in whole
// 8-byte words.
func checkSegHeader(key string, b []byte) error {
	if len(b) >= 8 && [8]byte(b[:8]) != segFileMagic {
		return fmt.Errorf("persist: segment %s: not an H2O segment file (magic %q)", key, b[:8])
	}
	if len(b) < 16 || (len(b)-8)%8 != 0 {
		return fmt.Errorf("persist: segment %s: truncated segment file (%d bytes)", key, len(b))
	}
	return nil
}

// installSegment validates the payload against the segment skeleton and
// installs one GroupEncoding per group. words holds everything after the
// magic, trailing digest included. On the mmap path the block payloads
// alias the mapping and release is registered on the segment; on error
// the caller releases.
func (st *SegmentStore) installSegment(key string, seg *storage.Segment, words []uint64, mapped bool, release func()) error {
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
		if got := payloadDigest(payload); got != want {
			return fmt.Errorf("persist: segment %s: content digest mismatch (spill file corrupt)", key)
		}
		st.mu.Lock()
		st.verified[key] = ver
		st.mu.Unlock()
	}
	cur := wordCursor{w: payload[1:], key: key}
	rows, err := cur.next()
	if err != nil {
		return err
	}
	if rows != uint64(seg.Rows) {
		return fmt.Errorf("persist: segment %s: file has %d rows, segment has %d", key, rows, seg.Rows)
	}
	nGroups, err := cur.next()
	if err != nil {
		return err
	}
	if int(nGroups) != len(seg.Groups) {
		return fmt.Errorf("persist: segment %s: file has %d groups, segment has %d", key, nGroups, len(seg.Groups))
	}
	// Parse and validate everything first; install only on full success so
	// a failed fault leaves the segment untouched.
	encs := make([]*storage.GroupEncoding, len(seg.Groups))
	for gi, g := range seg.Groups {
		nga, err := cur.next()
		if err != nil {
			return err
		}
		if int(nga) != len(g.Attrs) {
			return fmt.Errorf("persist: segment %s group %d: file width %d, segment width %d", key, gi, nga, len(g.Attrs))
		}
		for i, a := range g.Attrs {
			v, err := cur.next()
			if err != nil {
				return err
			}
			if data.AttrID(v) != a {
				return fmt.Errorf("persist: segment %s group %d: attribute %d is %d on disk, %d in memory", key, gi, i, v, a)
			}
		}
		stride, err := cur.next()
		if err != nil {
			return err
		}
		if int(stride) != g.Stride {
			return fmt.Errorf("persist: segment %s group %d: file stride %d, segment stride %d", key, gi, stride, g.Stride)
		}
		e := &storage.GroupEncoding{Cols: make([]*storage.EncColumn, len(g.Attrs)), Mapped: mapped}
		for ci := range g.Attrs {
			nBlocks, err := cur.next()
			if err != nil {
				return err
			}
			wantBlocks := (g.Rows + storage.EncBlockRows - 1) / storage.EncBlockRows
			if int(nBlocks) != wantBlocks {
				return fmt.Errorf("persist: segment %s group %d col %d: %d blocks on disk, want %d", key, gi, ci, nBlocks, wantBlocks)
			}
			col := &storage.EncColumn{Rows: g.Rows, Blocks: make([]storage.EncBlock, nBlocks)}
			covered := 0
			for bi := 0; bi < int(nBlocks); bi++ {
				hdr, err := cur.take(segBlockHeaderWords)
				if err != nil {
					return err
				}
				blk := storage.EncBlock{
					Kind:  storage.EncKind(hdr[0]),
					Rows:  int(hdr[1]),
					Bits:  uint8(hdr[2]),
					Runs:  int(hdr[3]),
					Min:   data.Value(hdr[4]),
					Max:   data.Value(hdr[5]),
					Sum:   data.Value(hdr[6]),
					Base:  data.Value(hdr[7]),
					DBase: data.Value(hdr[8]),
				}
				nWords := hdr[9]
				if blk.Kind > storage.EncRLE || blk.Rows <= 0 || blk.Rows > storage.EncBlockRows || blk.Bits > 64 {
					return fmt.Errorf("persist: segment %s group %d col %d block %d: malformed header", key, gi, ci, bi)
				}
				if bi < int(nBlocks)-1 && blk.Rows != storage.EncBlockRows {
					return fmt.Errorf("persist: segment %s group %d col %d block %d: interior block has %d rows", key, gi, ci, bi, blk.Rows)
				}
				blk.Words, err = cur.take(int(nWords))
				if err != nil {
					return err
				}
				if err := checkBlockPayload(&blk); err != nil {
					return fmt.Errorf("persist: segment %s group %d col %d block %d: %w", key, gi, ci, bi, err)
				}
				covered += blk.Rows
				col.Blocks[bi] = blk
			}
			if covered != g.Rows {
				return fmt.Errorf("persist: segment %s group %d col %d: blocks cover %d rows, want %d", key, gi, ci, covered, g.Rows)
			}
			e.Cols[ci] = col
		}
		encs[gi] = e
	}
	if cur.i != len(cur.w) {
		return fmt.Errorf("persist: segment %s: %d trailing words after payload", key, len(cur.w)-cur.i)
	}
	for gi, g := range seg.Groups {
		g.SetEncoding(encs[gi])
	}
	if mapped {
		seg.SetMapRelease(release)
	}
	return nil
}

// checkBlockPayload validates payload sizes and RLE run totals so a
// corrupt block can never index out of bounds during a scan.
func checkBlockPayload(b *storage.EncBlock) error {
	switch b.Kind {
	case storage.EncRaw:
		if len(b.Words) != b.Rows {
			return fmt.Errorf("raw payload %d words for %d rows", len(b.Words), b.Rows)
		}
	case storage.EncFOR:
		if want := (b.Rows*int(b.Bits) + 63) / 64; len(b.Words) != want {
			return fmt.Errorf("for payload %d words, want %d", len(b.Words), want)
		}
	case storage.EncDelta:
		if want := ((b.Rows-1)*int(b.Bits) + 63) / 64; len(b.Words) != want {
			return fmt.Errorf("delta payload %d words, want %d", len(b.Words), want)
		}
	case storage.EncRLE:
		if len(b.Words) != 2*b.Runs {
			return fmt.Errorf("rle payload %d words for %d runs", len(b.Words), b.Runs)
		}
		total := uint64(0)
		for i := 1; i < len(b.Words); i += 2 {
			total += b.Words[i]
		}
		if total != uint64(b.Rows) {
			return fmt.Errorf("rle runs cover %d rows, want %d", total, b.Rows)
		}
	}
	return nil
}

// wordCursor walks a payload with bounds checking, so truncated or
// malformed files surface as clean errors rather than panics.
type wordCursor struct {
	w   []uint64
	i   int
	key string
}

func (c *wordCursor) next() (uint64, error) {
	if c.i >= len(c.w) {
		return 0, fmt.Errorf("persist: segment %s: truncated segment file", c.key)
	}
	v := c.w[c.i]
	c.i++
	return v, nil
}

func (c *wordCursor) take(n int) ([]uint64, error) {
	if n < 0 || c.i+n > len(c.w) {
		return nil, fmt.Errorf("persist: segment %s: truncated segment file", c.key)
	}
	s := c.w[c.i : c.i+n : c.i+n]
	c.i += n
	return s, nil
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

// payloadDigest folds a segment file's payload words into a
// position-mixed checksum.
func payloadDigest(words []uint64) uint64 {
	var sum uint64
	for i, v := range words {
		h := v ^ (uint64(i) * 0x9e3779b97f4a7c15)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		sum += h
	}
	return sum
}
