package harness

import (
	"context"
	"fmt"
	"time"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/server"
	"h2o/internal/storage"
)

// RunGroupBy measures GROUP BY under the serving tiers (not a paper
// experiment): a repeated grouped aggregate over a tail-append workload is
// delta-repaired — the cached per-segment group maps are merged with a
// rescan of only the appended tail — so its per-query cost stays ~flat as
// the relation grows, while full re-aggregation (partial cache disabled)
// rebuilds every segment's groups and grows linearly with the segment
// count. Each table row doubles the relation.
//
//	h2obench -exp groupby
func RunGroupBy(cfg Config) (*Table, error) {
	const (
		nAttrs  = 8
		rounds  = 12 // append+query rounds averaged per cell
		segCap  = 1024
		nPoints = 4
		nKeys   = 64 // distinct group keys in the key attribute
	)
	base := cfg.Rows150 / 4
	if base < 4*segCap {
		base = 4 * segCap
	}

	t := &Table{
		Title: "groupby: repeated grouped aggregate under tail appends — grouped delta repair (flat) vs full re-aggregation (grows with relation)",
		Columns: []string{"rows", "segments", "groups", "full_ms", "repair_ms",
			"repaired_segs/query", "speedup"},
	}

	// select a3, sum(a1), count(a2) from R group by a3 — the key attribute
	// is remapped below to a small domain so groups accumulate real state.
	q := query.GroupedAggregation("R", expr.AggSum, []data.AttrID{1, 2}, []data.AttrID{3}, nil)
	rowsAt := base
	for p := 0; p < nPoints; p++ {
		tb := data.GenerateTimeSeries(data.SyntheticSchema("R", nAttrs), rowsAt, cfg.Seed)
		// Fold the key attribute into [0, nKeys): the synthetic domain is
		// near-unique, which would make every row its own group.
		for r := 0; r < tb.Rows; r++ {
			v := tb.Cols[3][r] % nKeys
			if v < 0 {
				v += nKeys
			}
			tb.Cols[3][r] = v
		}

		repairMs, repairedSegs, groups, err := timeGroupByPoint(tb, segCap, q, rounds, nKeys, 0)
		if err != nil {
			return nil, err
		}
		fullMs, _, _, err := timeGroupByPoint(tb, segCap, q, rounds, nKeys, -1)
		if err != nil {
			return nil, err
		}
		segs := (rowsAt + segCap - 1) / segCap
		speedup := "-"
		if repairMs > 0 {
			speedup = fmt.Sprintf("%.1fx", fullMs/repairMs)
		}
		t.AddRow(itoa(rowsAt), itoa(segs), itoa(groups),
			fmt.Sprintf("%.3f", fullMs), fmt.Sprintf("%.3f", repairMs),
			fmt.Sprintf("%.1f", repairedSegs), speedup)
		rowsAt *= 2
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("segment capacity %d rows, %d distinct group keys; each cell averages %d append+query rounds", segCap, nKeys, rounds),
		"repair_ms must stay ~flat as rows grow: each repair rescans only the appended tail segment and merges its group map with the cached ones (repaired_segs/query ~1)",
		"full_ms grows with the segment count: with the partial cache disabled every miss re-aggregates every group in every segment")
	return t, nil
}

// timeGroupByPoint measures one sweep cell: average per-query latency of the
// repeated grouped aggregate across append+query rounds, against a server
// whose partial cache is budgeted by partialBytes (0 = server default,
// enabling grouped delta repair; negative = disabled, every miss
// re-aggregates from scratch). It also returns the average segments
// rescanned per served query and the group count of the final result.
func timeGroupByPoint(tb *data.Table, segCap int, q *query.Query, rounds, nKeys int, partialBytes int64) (msPerQuery, repairedSegs float64, groups int, err error) {
	opts := core.DefaultOptions()
	opts.Mode = core.ModeFrozen // only the appends mutate
	eng := core.New(storage.BuildColumnMajorSeg(tb, segCap), opts)
	srv := server.New(server.TableBackend{Name: tb.Schema.Name, T: eng}, server.Config{Workers: 2, PartialCacheBytes: partialBytes})
	defer srv.Close()
	ctx := context.Background()

	if _, _, err := srv.Query(ctx, q); err != nil { // seed grouped partials
		return 0, 0, 0, err
	}
	tuple := make([]data.Value, len(tb.Schema.Attrs))
	var total time.Duration
	for i := 0; i < rounds; i++ {
		tuple[0] = data.Value(10_000_000 + i)
		tuple[3] = data.Value(i % nKeys) // rotate through existing groups
		if err := eng.Insert([][]data.Value{tuple}); err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		res, _, err := srv.Query(ctx, q)
		if err != nil {
			return 0, 0, 0, err
		}
		total += time.Since(start)
		groups = res.Rows
	}
	st := srv.Stats()
	return float64(total.Microseconds()) / 1000 / float64(rounds),
		float64(st.RepairedSegments) / float64(rounds), groups, nil
}
