package exec

import "h2o/internal/data"

// keyDir hands out dense int32 ids for keys — one data.Value per key for
// join keys and single-key groups, a fixed-width vector for multi-key
// groups — so operators keep their per-key state in slices indexed by id
// instead of maps. Grouped aggregation (groupedAcc) and the join build
// side (joinIndex) share it.
//
// A dense directory addresses ids as key - lo for keys in [lo, lo+n): a
// lookup is one unsigned subtraction and one bounds check, so keys below
// lo wrap to huge offsets and fail the same check, and spans are computed
// in unsigned arithmetic, so keys covering the whole int64 domain cannot
// overflow them. Only single-value keys are dense, apart from the one
// empty key vector of a scalar aggregate: a dense directory of width 0
// with the one id 0.
//
// A hashed directory hands ids out in insertion order and finds them
// through an open-addressing table: a power-of-two slot count kept at
// least twice the id count, multiplicative hashing of the key vector and
// linear probing that compares the stored vector.
type keyDir struct {
	width int          // values per key
	dense bool         // dense: id = key - lo
	lo    data.Value   // dense: the key of id 0
	n     int          // ids handed out; dense: the span's slot count
	keys  []data.Value // hashed: id -> key vector (width values), insertion order
	slots []int32      // hashed: slot -> id, -1 empty
	shift uint         // hashed: 64 - log2(len(slots))
}

// keyHashMul is the 64-bit Fibonacci hashing multiplier (2^64 / phi).
const keyHashMul = 0x9E3779B97F4A7C15

// denseSpan reports the slot count a dense directory over [lo, hi] needs, and
// whether it stays below limit; computed in unsigned arithmetic.
func denseSpan(lo, hi data.Value, limit int) (int, bool) {
	s := uint64(hi) - uint64(lo)
	if s >= uint64(limit) {
		return 0, false
	}
	return int(s) + 1, true
}

// denseKeyDir returns a dense directory of n ids for the keys [lo, lo+n).
func denseKeyDir(lo data.Value, n int) keyDir {
	return keyDir{width: 1, dense: true, lo: lo, n: n}
}

// hashedKeyDir returns an empty hashed directory of width-value keys with
// room for about hint ids before it first grows.
func hashedKeyDir(width, hint int) keyDir {
	d := keyDir{width: width}
	d.resize(max(2*hint, 16))
	return d
}

// planned reports whether the directory has a mode yet; the zero keyDir
// (with width set) is unplanned.
func (d *keyDir) planned() bool { return d.dense || d.slots != nil }

// find returns the id of single-value key k, -1 when k has none.
func (d *keyDir) find(k data.Value) int32 {
	if d.dense {
		if u := uint64(k) - uint64(d.lo); u < uint64(d.n) {
			return int32(u)
		}
		return -1
	}
	return d.findHashed(k)
}

func (d *keyDir) findHashed(k data.Value) int32 {
	mask := len(d.slots) - 1
	for s := int((uint64(k) * keyHashMul) >> d.shift); ; s = (s + 1) & mask {
		id := d.slots[s]
		if id < 0 || d.keys[id] == k {
			return id
		}
	}
}

// hash is the slot hash of key vector kv.
func (d *keyDir) hash(kv []data.Value) int {
	var h uint64
	for _, v := range kv {
		h = (h ^ uint64(v)) * keyHashMul
	}
	return int(h >> d.shift)
}

// intern returns the id of key vector kv in a hashed directory, handing
// out the next id when kv is new.
func (d *keyDir) intern(kv []data.Value) int32 {
	mask := len(d.slots) - 1
	w := d.width
	s := d.hash(kv)
	for {
		id := d.slots[s]
		if id < 0 {
			break
		}
		if d.equal(id, kv) {
			return id
		}
		s = (s + 1) & mask
	}
	id := int32(d.n)
	d.slots[s] = id
	d.keys = append(d.keys, kv[:w]...)
	d.n++
	if 2*d.n > len(d.slots) {
		d.resize(2 * len(d.slots))
	}
	return id
}

func (d *keyDir) equal(id int32, kv []data.Value) bool {
	stored := d.keys[int(id)*d.width : int(id+1)*d.width]
	for i, v := range stored {
		if kv[i] != v {
			return false
		}
	}
	return true
}

// resize rebuilds the hashed slot table with slots entries (a power of
// two is taken at or above it), re-placing every id.
func (d *keyDir) resize(slots int) {
	bits := 4
	for 1<<bits < slots {
		bits++
	}
	d.slots = make([]int32, 1<<bits)
	for i := range d.slots {
		d.slots[i] = -1
	}
	d.shift = uint(64 - bits)
	mask := len(d.slots) - 1
	for id := 0; id < d.n; id++ {
		s := d.hash(d.keys[id*d.width : (id+1)*d.width])
		for d.slots[s] >= 0 {
			s = (s + 1) & mask
		}
		d.slots[s] = int32(id)
	}
}

// toHashed converts a dense directory to a hashed one holding the keys of
// the dense ids in live, in order: live[i] gets hashed id i.
func (d *keyDir) toHashed(live []int32) {
	lo := d.lo
	*d = hashedKeyDir(1, 2*len(live))
	for _, id := range live {
		d.intern([]data.Value{lo + data.Value(id)})
	}
}

// key appends the key vector of id to dst.
func (d *keyDir) key(id int32, dst []data.Value) []data.Value {
	if d.width == 0 {
		return dst
	}
	if d.dense {
		return append(dst, d.lo+data.Value(id))
	}
	return append(dst, d.keys[int(id)*d.width:int(id+1)*d.width]...)
}
