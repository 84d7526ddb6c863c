package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"h2o/internal/data"
	"h2o/internal/storage"
)

// A segment record is one segment's encoded form (storage/encode.go) as
// little-endian uint64 words:
//
//	rows
//	groups  count, then per group:
//	          nattrs, attr ids...
//	          stride
//	          per attribute (column): nblocks, then per block:
//	            kind, rows, bits, runs, min, max, sum, base, dbase,
//	            nwords, payload words...
//
// It is the one on-disk segment codec: spill files (segstore.go) and
// snapshots (persist.go) both wrap records. appendRecord writes one and
// parseRecord reads and validates one. Either file is an 8-byte magic
// followed by whole words, so a read-only mmap of it can be aliased as
// []uint64 in place (readWords), and carries digestWords over its words
// so corruption is caught before a record is trusted.

// segBlockHeaderWords is the fixed per-block header size.
const segBlockHeaderWords = 10

// appendRecord appends seg's record to words. enc supplies each group's
// encoding; a group it returns nil for is an error.
func appendRecord(words []uint64, seg *storage.Segment, enc func(*storage.ColumnGroup) *storage.GroupEncoding) ([]uint64, error) {
	words = append(words, uint64(seg.Rows), uint64(len(seg.Groups)))
	for gi, g := range seg.Groups {
		e := enc(g)
		if e == nil {
			return words, fmt.Errorf("group %d has neither data nor encoding", gi)
		}
		words = append(words, uint64(len(g.Attrs)))
		for _, a := range g.Attrs {
			words = append(words, uint64(a))
		}
		words = append(words, uint64(g.Stride))
		for _, c := range e.Cols {
			words = append(words, uint64(len(c.Blocks)))
			for bi := range c.Blocks {
				b := &c.Blocks[bi]
				words = append(words,
					uint64(b.Kind), uint64(b.Rows), uint64(b.Bits), uint64(b.Runs),
					uint64(b.Min), uint64(b.Max), uint64(b.Sum),
					uint64(b.Base), uint64(b.DBase), uint64(len(b.Words)))
				words = append(words, b.Words...)
			}
		}
	}
	return words, nil
}

// recordGroup is one group parsed from a record. attrs aliases the
// record's words.
type recordGroup struct {
	attrs  []uint64
	stride int
	enc    *storage.GroupEncoding
}

// parseRecord reads one record at cur and validates it, so that a corrupt
// record can never index out of bounds later: rows is at most maxRows,
// the group count at most maxGroups, attribute ids ascend below nAttrs,
// the stride covers the width, and each column's blocks pass
// checkBlockPayload and cover the rows exactly. Every count is checked
// against the words left before anything is allocated for it. The
// encodings' payloads alias cur's words; mapped marks them as backed by a
// mapping.
func parseRecord(cur *wordCursor, maxRows, maxGroups, nAttrs uint64, mapped bool) (rows int, groups []recordGroup, err error) {
	r, err := cur.next()
	if err != nil {
		return 0, nil, err
	}
	if r > maxRows {
		return 0, nil, fmt.Errorf("%d rows, at most %d allowed", r, maxRows)
	}
	rows = int(r)
	n, err := cur.next()
	if err != nil {
		return 0, nil, err
	}
	if n == 0 || n > maxGroups || n > uint64(cur.left()) {
		return 0, nil, fmt.Errorf("implausible group count %d", n)
	}
	wantBlocks := uint64(rows+storage.EncBlockRows-1) / storage.EncBlockRows
	groups = make([]recordGroup, n)
	for gi := range groups {
		nga, err := cur.next()
		if err != nil {
			return 0, nil, err
		}
		if nga == 0 || nga > nAttrs {
			return 0, nil, fmt.Errorf("group %d has implausible width %d", gi, nga)
		}
		attrs, err := cur.take(nga)
		if err != nil {
			return 0, nil, err
		}
		for i, a := range attrs {
			if a >= nAttrs || (i > 0 && a <= attrs[i-1]) {
				return 0, nil, fmt.Errorf("group %d: attribute ids do not ascend below %d", gi, nAttrs)
			}
		}
		stride, err := cur.next()
		if err != nil {
			return 0, nil, err
		}
		if stride < nga || stride > 1<<31 {
			return 0, nil, fmt.Errorf("group %d: stride %d for width %d", gi, stride, nga)
		}
		e := &storage.GroupEncoding{Cols: make([]*storage.EncColumn, nga), Mapped: mapped}
		for ci := range e.Cols {
			nBlocks, err := cur.next()
			if err != nil {
				return 0, nil, err
			}
			if nBlocks != wantBlocks {
				return 0, nil, fmt.Errorf("group %d col %d: %d blocks, want %d", gi, ci, nBlocks, wantBlocks)
			}
			if nBlocks*segBlockHeaderWords > uint64(cur.left()) {
				return 0, nil, errTruncated
			}
			col := &storage.EncColumn{Rows: rows, Blocks: make([]storage.EncBlock, nBlocks)}
			covered := 0
			for bi := range col.Blocks {
				hdr, err := cur.take(segBlockHeaderWords)
				if err != nil {
					return 0, nil, err
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
				if hdr[0] > uint64(storage.EncRLE) || hdr[1] == 0 || hdr[1] > storage.EncBlockRows || hdr[2] > 64 || hdr[3] > storage.EncBlockRows {
					return 0, nil, fmt.Errorf("group %d col %d block %d: malformed header", gi, ci, bi)
				}
				if bi < len(col.Blocks)-1 && blk.Rows != storage.EncBlockRows {
					return 0, nil, fmt.Errorf("group %d col %d block %d: interior block has %d rows", gi, ci, bi, blk.Rows)
				}
				if blk.Words, err = cur.take(hdr[9]); err != nil {
					return 0, nil, err
				}
				if err := checkBlockPayload(&blk); err != nil {
					return 0, nil, fmt.Errorf("group %d col %d block %d: %w", gi, ci, bi, err)
				}
				covered += blk.Rows
				col.Blocks[bi] = blk
			}
			if covered != rows {
				return 0, nil, fmt.Errorf("group %d col %d: blocks cover %d rows, want %d", gi, ci, covered, rows)
			}
			e.Cols[ci] = col
		}
		groups[gi] = recordGroup{attrs: attrs, stride: int(stride), enc: e}
	}
	return rows, groups, nil
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
			if b.Words[i] > uint64(b.Rows) {
				return fmt.Errorf("rle run of %d rows in a %d-row block", b.Words[i], b.Rows)
			}
			total += b.Words[i]
		}
		if total != uint64(b.Rows) {
			return fmt.Errorf("rle runs cover %d rows, want %d", total, b.Rows)
		}
	}
	return nil
}

var errTruncated = errors.New("truncated")

// wordCursor walks a file's words with bounds checking, so truncated or
// malformed files surface as clean errors rather than panics.
type wordCursor struct {
	w []uint64
	i int
}

// left returns the number of words not yet read.
func (c *wordCursor) left() int { return len(c.w) - c.i }

func (c *wordCursor) next() (uint64, error) {
	if c.i >= len(c.w) {
		return 0, errTruncated
	}
	v := c.w[c.i]
	c.i++
	return v, nil
}

func (c *wordCursor) take(n uint64) ([]uint64, error) {
	if n > uint64(c.left()) {
		return nil, errTruncated
	}
	s := c.w[c.i : c.i+int(n) : c.i+int(n)]
	c.i += int(n)
	return s, nil
}

// string reads a string written by appendString.
func (c *wordCursor) string() (string, error) {
	n, err := c.next()
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	ws, err := c.take((n + 7) / 8)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(ws[i/8] >> (8 * (i % 8)))
	}
	return string(b), nil
}

// appendString appends s as its byte length followed by its bytes, packed
// eight to a word, little-endian, zero-padded.
func appendString(words []uint64, s string) []uint64 {
	words = append(words, uint64(len(s)))
	for i := 0; i < len(s); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(s); j++ {
			w |= uint64(s[i+j]) << (8 * j)
		}
		words = append(words, w)
	}
	return words
}

// digestWords folds words into sum, the i-th word sitting at position
// pos+i of the file's words: a position-mixed checksum that can be built
// up one slice at a time.
func digestWords(sum uint64, pos int, words []uint64) uint64 {
	for i, v := range words {
		h := v ^ (uint64(pos+i) * 0x9e3779b97f4a7c15)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		sum += h
	}
	return sum
}

// putWords writes words little-endian to bw. Write errors are sticky in
// a bufio.Writer and surface from its Flush.
func putWords(bw *bufio.Writer, words ...uint64) {
	var b [8]byte
	for _, v := range words {
		binary.LittleEndian.PutUint64(b[:], v)
		bw.Write(b[:])
	}
}

// checkHeader checks that b, a whole file, starts with magic and holds
// whole 8-byte words, at least one of them.
func checkHeader(b []byte, magic [8]byte, what string) error {
	if len(b) >= 8 && [8]byte(b[:8]) != magic {
		return fmt.Errorf("not an H2O %s (magic %q)", what, b[:8])
	}
	if len(b) < 16 || (len(b)-8)%8 != 0 {
		return fmt.Errorf("truncated %s (%d bytes)", what, len(b))
	}
	return nil
}

// readWords reads the file at path as words: through a read-only mmap
// aliased in place where supported (release unmaps it), into one heap
// buffer elsewhere (release is nil). The file must pass checkHeader; the
// words returned follow the magic.
func readWords(path string, magic [8]byte, what string) (words []uint64, release func(), err error) {
	if mmapSupported() {
		b, release, err := mmapFile(path)
		if err != nil {
			return nil, nil, err
		}
		if err := checkHeader(b, magic, what); err != nil {
			release()
			return nil, nil, err
		}
		return aliasWords(b[8:]), release, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if err := checkHeader(raw, magic, what); err != nil {
		return nil, nil, err
	}
	return bytesToWords(raw[8:]), nil, nil
}

// bytesToWords copies little-endian words out of b, whose length is a
// multiple of 8.
func bytesToWords(b []byte) []uint64 {
	words := make([]uint64, len(b)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return words
}

// atomicWriteFile writes a file via tmp + fsync + rename. On any error the
// temporary file is removed and path is left untouched. The containing
// directory is fsynced best-effort after the rename so the new directory
// entry itself survives a crash.
func atomicWriteFile(path string, write func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync() // not supported on every platform; the rename is still atomic
		d.Close()
	}
	return nil
}
