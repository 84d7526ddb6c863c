package advisor

import (
	"h2o/internal/costmodel"
	"h2o/internal/data"
	"h2o/internal/query"
)

// AutoPart is the offline vertical-partitioning baseline of Figure 8, in the
// style of AutoPart [41]: it sees the *whole* workload up front and computes
// one static, non-overlapping partition of the relation's attributes that
// minimizes the workload's scan cost. It never revisits the decision — the
// limitation H2O's per-query adaptation overcomes.
//
// The algorithm is the classic greedy: start from atomic fragments (the
// equivalence classes induced by the queries' attribute sets), then
// repeatedly merge the pair of fragments whose union lowers the workload
// cost the most, until no merge helps. Because Eq. 2's workload cost is
// additive over (query, fragment) terms, the gain of merging a pair is
// computed incrementally; a cached delta matrix keeps the greedy loop
// near-quadratic instead of quartic.
func AutoPart(nAttrs, rows int, workload []query.Info, m *costmodel.Model) [][]data.AttrID {
	// Atomic fragments: attributes partitioned by their exact usage
	// signature across queries — attributes always accessed together land in
	// the same fragment (AutoPart's "atomic fragment" construction).
	sigs := make([]string, nAttrs)
	for qi, info := range workload {
		inQuery := make(map[data.AttrID]bool)
		for _, a := range info.All() {
			inQuery[a] = true
		}
		for a := 0; a < nAttrs; a++ {
			if inQuery[a] {
				sigs[a] += string(rune('A' + qi%64))
			} else {
				sigs[a] += "."
			}
		}
	}
	bySig := map[string][]data.AttrID{}
	var order []string
	for a := 0; a < nAttrs; a++ {
		if _, ok := bySig[sigs[a]]; !ok {
			order = append(order, sigs[a])
		}
		bySig[sigs[a]] = append(bySig[sigs[a]], a)
	}
	parts := make([][]data.AttrID, 0, len(order))
	for _, s := range order {
		parts = append(parts, data.SortedUnique(bySig[s]))
	}

	// term prices one (fragment, query) access: the Eq. 2 contribution of
	// scanning the fragment for the query, plus the reconstruction
	// intermediates the query pays when the fragment serves only part of its
	// attributes.
	term := func(frag []data.AttrID, info query.Info) costmodel.Seconds {
		need := info.All()
		used := data.IntersectCount(frag, need)
		if used == 0 {
			return 0
		}
		sel := 0.5
		if len(info.Where) == 0 {
			sel = 1
		}
		inter := 0
		if used < len(need) {
			inter = int(float64(used*rows) * sel)
		}
		return m.QueryCost([]costmodel.GroupAccess{{
			Stride: len(frag), Width: len(frag), Used: used,
			Rows: rows, Selectivity: sel, IntermediateWords: inter,
		}})
	}

	// partCost[i] = Σ_q term(parts[i], q).
	partCost := func(frag []data.AttrID) costmodel.Seconds {
		var c costmodel.Seconds
		for _, info := range workload {
			c += term(frag, info)
		}
		return c
	}

	costs := make([]costmodel.Seconds, len(parts))
	for i, p := range parts {
		costs[i] = partCost(p)
	}

	// delta(i, j) = cost(union) - cost(i) - cost(j); negative is a win.
	delta := func(i, j int) costmodel.Seconds {
		return partCost(data.Union(parts[i], parts[j])) - costs[i] - costs[j]
	}

	// Cached delta matrix, rebuilt lazily only for rows touching a merge.
	n := len(parts)
	deltas := make([][]costmodel.Seconds, n)
	for i := range deltas {
		deltas[i] = make([]costmodel.Seconds, n)
		for j := i + 1; j < n; j++ {
			deltas[i][j] = delta(i, j)
		}
	}

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for {
		bestI, bestJ := -1, -1
		var bestD costmodel.Seconds
		for i := 0; i < len(parts); i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < len(parts); j++ {
				if !alive[j] {
					continue
				}
				if d := deltas[i][j]; d < bestD {
					bestD, bestI, bestJ = d, i, j
				}
			}
		}
		if bestI < 0 {
			break
		}
		merged := data.Union(parts[bestI], parts[bestJ])
		alive[bestJ] = false
		parts[bestI] = merged
		costs[bestI] = partCost(merged)
		// Refresh deltas involving the merged fragment.
		for k := 0; k < len(parts); k++ {
			if !alive[k] || k == bestI {
				continue
			}
			lo, hi := bestI, k
			if lo > hi {
				lo, hi = hi, lo
			}
			deltas[lo][hi] = delta(lo, hi)
		}
	}

	var out [][]data.AttrID
	for i, p := range parts {
		if alive[i] {
			out = append(out, p)
		}
	}
	return out
}
