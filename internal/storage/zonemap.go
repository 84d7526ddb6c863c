package storage

import (
	"h2o/internal/data"
	"h2o/internal/expr"
)

// ZoneMap summarizes a column group with per-block min/max values per
// attribute, enabling scans to skip blocks — and, through the whole-group
// bounds it also maintains, entire segments — that cannot satisfy a
// predicate. This is the lightweight end of the "adaptive indexing together
// with adaptive data layouts" direction the paper's conclusions propose:
// zone maps are built in one pass when a group is loaded, assembled from
// the source groups' maps when a group is stitched by reorganization (a
// block's min/max depend on the values, not the layout), and extended
// incrementally as tuples are appended to the tail segment, so they ride
// along with layout adaptation for free.
//
// Skipping only pays off when values cluster by position (e.g. append-
// ordered timestamps); on uniformly shuffled data every block spans the
// whole domain and nothing is skipped.
type ZoneMap struct {
	Block int // rows per zone
	zones int
	width int
	rows  int          // rows summarized so far
	mins  []data.Value // zone*width + attrPos
	maxs  []data.Value
	// allMin/allMax are whole-group bounds per attribute offset, kept in
	// sync by extend. Segment pruning consults them in O(1) instead
	// of walking every zone.
	allMin []data.Value
	allMax []data.Value
}

// DefaultZoneBlock is the default rows-per-zone granularity.
const DefaultZoneBlock = 1024

// NewZoneMap returns an empty zone map for a group of the given width,
// ready to be extended as the tail segment absorbs appends.
// block <= 0 selects DefaultZoneBlock.
func NewZoneMap(width, block int) *ZoneMap {
	if block <= 0 {
		block = DefaultZoneBlock
	}
	return &ZoneMap{
		Block:  block,
		width:  width,
		allMin: make([]data.Value, width),
		allMax: make([]data.Value, width),
	}
}

// BuildZoneMap scans g once and summarizes every block. block <= 0 selects
// DefaultZoneBlock.
func BuildZoneMap(g *ColumnGroup, block int) *ZoneMap {
	z := NewZoneMap(g.Width, block)
	zones := (g.Rows + z.Block - 1) / z.Block
	z.mins = make([]data.Value, 0, zones*g.Width)
	z.maxs = make([]data.Value, 0, zones*g.Width)
	z.extend(g)
	return z
}

// extend folds g's rows past those the map already summarizes into it,
// block by block: the last zone's min/max widen, and fresh zones open at
// block boundaries. Builds and tail appends share it, so a map kept up
// under appends is exactly the one a rebuild would produce.
func (z *ZoneMap) extend(g *ColumnGroup) {
	d, stride, w := g.Data, g.Stride, z.width
	for lo := z.rows; lo < g.Rows; {
		zi := lo / z.Block
		hi := min((zi+1)*z.Block, g.Rows)
		if zi == z.zones {
			// Crossing a block boundary: open a zone seeded with row lo.
			z.zones++
			z.mins = append(z.mins, d[lo*stride:lo*stride+w]...)
			z.maxs = append(z.maxs, d[lo*stride:lo*stride+w]...)
		}
		mins, maxs := z.mins[zi*w:(zi+1)*w], z.maxs[zi*w:(zi+1)*w]
		for off := range mins {
			mn, mx := mins[off], maxs[off]
			for r := lo; r < hi; r++ {
				v := d[r*stride+off]
				mn = min(mn, v)
				mx = max(mx, v)
			}
			mins[off], maxs[off] = mn, mx
			if lo == 0 || mn < z.allMin[off] {
				z.allMin[off] = mn
			}
			if lo == 0 || mx > z.allMax[off] {
				z.allMax[off] = mx
			}
		}
		z.rows, lo = hi, hi
	}
}

// deriveZoneMap assembles the zone map of a group of rows rows whose
// column i was stitched from cols[i]: zone zi of column i is zone zi of
// the source's attribute, and so are the whole-group bounds. It returns
// nil when a source has no map over exactly rows at DefaultZoneBlock; the
// caller rebuilds from the data then. The result equals BuildZoneMap of
// the stitched group, so appends extend it like any other map.
func deriveZoneMap(rows int, cols []stitchCol) *ZoneMap {
	for _, c := range cols {
		if sz := c.g.zm; sz == nil || sz.Block != DefaultZoneBlock || sz.rows != rows {
			return nil
		}
	}
	w := len(cols)
	z := NewZoneMap(w, DefaultZoneBlock)
	z.rows = rows
	z.zones = (rows + z.Block - 1) / z.Block
	z.mins = make([]data.Value, z.zones*w)
	z.maxs = make([]data.Value, z.zones*w)
	for i, c := range cols {
		sz, so := c.g.zm, c.off
		for zi, j := 0, so; zi < z.zones; zi, j = zi+1, j+sz.width {
			z.mins[zi*w+i] = sz.mins[j]
			z.maxs[zi*w+i] = sz.maxs[j]
		}
		z.allMin[i], z.allMax[i] = sz.allMin[so], sz.allMax[so]
	}
	return z
}

// Zones returns the number of blocks.
func (z *ZoneMap) Zones() int { return z.zones }

// Rows returns the number of rows the map summarizes.
func (z *ZoneMap) Rows() int { return z.rows }

// ZoneRange returns the row span of zone zi, clamped to rows.
func (z *ZoneMap) ZoneRange(zi, rows int) (lo, hi int) {
	lo = zi * z.Block
	hi = lo + z.Block
	if hi > rows {
		hi = rows
	}
	return lo, hi
}

// MayMatch reports whether any value of the attribute at word offset off in
// zone zi can satisfy "value op v". False means the whole block is safely
// skippable.
func (z *ZoneMap) MayMatch(zi, off int, op expr.CmpOp, v data.Value) bool {
	return boundsMayMatch(z.mins[zi*z.width+off], z.maxs[zi*z.width+off], op, v)
}

// MayMatchAny reports whether any row of the whole group can satisfy
// "value op v", using the group-level bounds. False on an empty map: a
// segment with no rows trivially has no matches.
func (z *ZoneMap) MayMatchAny(off int, op expr.CmpOp, v data.Value) bool {
	if z.rows == 0 {
		return false
	}
	return boundsMayMatch(z.allMin[off], z.allMax[off], op, v)
}

func boundsMayMatch(mn, mx data.Value, op expr.CmpOp, v data.Value) bool {
	switch op {
	case expr.Lt:
		return mn < v
	case expr.Le:
		return mn <= v
	case expr.Gt:
		return mx > v
	case expr.Ge:
		return mx >= v
	case expr.Eq:
		return mn <= v && v <= mx
	case expr.Ne:
		return mn != v || mx != v
	default:
		return true
	}
}
