package exec

import (
	"math/bits"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// Bitmap is the bit-vector representation of qualifying tuples — the
// alternative to selection vectors the paper notes in §2.1 ("using early
// materialization, bit-vectors instead of list of IDs"). Bitmaps cost a
// fixed rows/8 bytes regardless of selectivity: denser than an id list
// above ~3% selectivity, and refinement is a branch-free AND, but consumers
// must scan for set bits. The ablation-bitmap experiment measures the
// trade-off.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an empty bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i as qualifying.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether row i qualifies.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of qualifying rows.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears the bitmap.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// And intersects b with o in place.
func (b *Bitmap) And(o *Bitmap) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// ToSel appends the qualifying row ids to sel.
func (b *Bitmap) ToSel(sel []int32) []int32 {
	for wi, w := range b.words {
		base := int32(wi << 6)
		for w != 0 {
			sel = append(sel, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return sel
}

// FilterGroupBitmap evaluates the conjunction of preds over every row of g,
// setting the bit of each qualifying row. The write is branch-free: the
// predicate outcome is shifted into the bitmap word directly.
func FilterGroupBitmap(g *storage.ColumnGroup, preds []GroupPred, bm *Bitmap) {
	d, stride := g.Data, g.Stride
	switch len(preds) {
	case 1:
		p := preds[0]
		off, op, v := p.Off, p.Op, p.Val
		idx := off
		for r := 0; r < g.Rows; r++ {
			var bit uint64
			if expr.Compare(op, d[idx], v) {
				bit = 1
			}
			bm.words[r>>6] |= bit << (uint(r) & 63)
			idx += stride
		}
	default:
		base := 0
		for r := 0; r < g.Rows; r++ {
			var bit uint64
			if passes(d, base, preds) {
				bit = 1
			}
			bm.words[r>>6] |= bit << (uint(r) & 63)
			base += stride
		}
	}
}

// RefineBitmap clears the bits of rows that fail the conjunction of preds
// over g. Only currently-set bits are re-evaluated.
func RefineBitmap(g *storage.ColumnGroup, preds []GroupPred, bm *Bitmap) {
	d, stride := g.Data, g.Stride
	for wi, w := range bm.words {
		if w == 0 {
			continue
		}
		base := wi << 6
		probe := w
		for probe != 0 {
			bit := bits.TrailingZeros64(probe)
			probe &= probe - 1
			r := base + bit
			if !passes(d, r*stride, preds) {
				bm.words[wi] &^= 1 << uint(bit)
			}
		}
	}
}

// AggColumnBitmap folds an aggregate over the rows whose bit is set.
func AggColumnBitmap(g *storage.ColumnGroup, off int, op expr.AggOp, bm *Bitmap) data.Value {
	d, stride := g.Data, g.Stride
	st := expr.NewAggState(op)
	for wi, w := range bm.words {
		base := wi << 6
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &= w - 1
			st.Add(d[(base+bit)*stride+off])
		}
	}
	return st.Result()
}

// foldColumnBitmap folds the rows whose bit is set into st.
func foldColumnBitmap(st *expr.AggState, g *storage.ColumnGroup, off int, bm *Bitmap) {
	d, stride := g.Data, g.Stride
	for wi, w := range bm.words {
		base := wi << 6
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &= w - 1
			st.Add(d[(base+bit)*stride+off])
		}
	}
}

// bitmapSegPartial is the bitmap pipeline's per-segment operator: fused
// predicate evaluation into a segment-sized bit-vector, refined by AND,
// then aggregate or grouped folds over the set bits, emitted as that
// segment's partial.
func bitmapSegPartial(seg *storage.Segment, q *query.Query, out Outputs, preds []ColPred, stats *StrategyStats) (*partial, error) {
	states := newStates(out)
	var ga *groupedAcc
	if out.Kind == OutGrouped {
		ga = newGroupedAcc(out)
	}
	_, assign, err := seg.CoveringGroups(q.AllAttrs())
	if err != nil {
		return nil, err
	}

	var bm *Bitmap
	if len(preds) > 0 {
		bm = NewBitmap(seg.Rows)
		grouped := map[*storage.ColumnGroup][]GroupPred{}
		var order []*storage.ColumnGroup
		for _, p := range preds {
			g := assign[p.Attr]
			off, _ := g.Offset(p.Attr)
			if _, seen := grouped[g]; !seen {
				order = append(order, g)
			}
			grouped[g] = append(grouped[g], GroupPred{Off: off, Op: p.Op, Val: p.Val})
		}
		for i, g := range order {
			if i == 0 {
				FilterGroupBitmap(g, grouped[g], bm)
			} else {
				RefineBitmap(g, grouped[g], bm)
			}
		}
		if stats != nil {
			stats.IntermediateWords += len(bm.words)
		}
	}

	if out.Kind == OutGrouped {
		folder, err := segmentFolder(seg, groupedScanAttrs(out), out)
		if err != nil {
			return nil, err
		}
		if bm != nil {
			for wi, w := range bm.words {
				base := wi << 6
				for w != 0 {
					bit := bits.TrailingZeros64(w)
					w &= w - 1
					folder.push(ga, base+bit)
				}
			}
			folder.flush(ga)
		} else {
			folder.foldRange(ga, 0, seg.Rows)
		}
		return &partial{groups: ga}, nil
	}

	for i, a := range out.AggAttrs {
		g := assign[a]
		off, _ := g.Offset(a)
		if bm != nil {
			foldColumnBitmap(states[i], g, off, bm)
		} else {
			foldRange(states[i], g, off, 0, seg.Rows)
		}
	}
	return &partial{states: states}, nil
}
