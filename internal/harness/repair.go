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

// RunRepair measures the partial-result-reuse contract (not a paper
// experiment): a repeated full-relation aggregate over a tail-append
// workload is delta-repaired — only the changed tail segment is rescanned
// and re-combined with the cached per-segment partials — so its per-query
// cost stays flat as the relation grows, while recomputing from scratch
// (partial cache disabled) grows linearly with the segment count. Each
// table row doubles the relation; the flat-vs-linear gap is the
// experiment's result.
//
//	h2obench -exp repair
func RunRepair(cfg Config) (*Table, error) {
	const (
		nAttrs  = 8
		rounds  = 12 // append+query rounds averaged per cell
		segCap  = 1024
		nPoints = 4
	)
	base := cfg.Rows150 / 4
	if base < 4*segCap {
		base = 4 * segCap
	}

	t := &Table{
		Title: "repair: repeated aggregate under tail appends — delta repair (flat) vs full recomputation (grows with relation)",
		Columns: []string{"rows", "segments", "full_ms", "repair_ms",
			"repaired_segs/query", "speedup"},
	}

	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
	rowsAt := base
	for p := 0; p < nPoints; p++ {
		tb := data.GenerateTimeSeries(data.SyntheticSchema("R", nAttrs), rowsAt, cfg.Seed)

		repairMs, repairedSegs, err := timeRepairPoint(tb, segCap, q, rounds, 0)
		if err != nil {
			return nil, err
		}
		fullMs, _, err := timeRepairPoint(tb, segCap, q, rounds, -1)
		if err != nil {
			return nil, err
		}
		segs := (rowsAt + segCap - 1) / segCap
		speedup := "-"
		if repairMs > 0 {
			speedup = fmt.Sprintf("%.1fx", fullMs/repairMs)
		}
		t.AddRow(itoa(rowsAt), itoa(segs),
			fmt.Sprintf("%.3f", fullMs), fmt.Sprintf("%.3f", repairMs),
			fmt.Sprintf("%.1f", repairedSegs), speedup)
		rowsAt *= 2
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("segment capacity %d rows; each cell averages %d append+query rounds", segCap, rounds),
		"repair_ms must stay ~flat as rows grow: each repair rescans only the appended tail segment (repaired_segs/query ~1)",
		"full_ms grows with the segment count: with the partial cache disabled every miss rescans the whole relation")
	return t, nil
}

// timeRepairPoint measures one sweep cell: average per-query latency of the
// repeated aggregate across append+query rounds, against a server whose
// partial cache is budgeted by partialBytes (0 = server default, enabling
// delta repair; negative = disabled, every miss recomputes). It also
// returns the average segments rescanned per served query.
func timeRepairPoint(tb *data.Table, segCap int, q *query.Query, rounds int, partialBytes int64) (msPerQuery, repairedSegs float64, err error) {
	opts := core.DefaultOptions()
	opts.Mode = core.ModeFrozen // only the appends mutate
	eng := core.New(storage.BuildColumnMajorSeg(tb, segCap), opts)
	srv := server.New(server.TableBackend{Name: tb.Schema.Name, T: eng}, server.Config{Workers: 2, PartialCacheBytes: partialBytes})
	defer srv.Close()
	ctx := context.Background()

	if _, _, err := srv.Query(ctx, q); err != nil { // seed partials / warm cache
		return 0, 0, err
	}
	tuple := make([]data.Value, len(tb.Schema.Attrs))
	var total time.Duration
	for i := 0; i < rounds; i++ {
		tuple[0] = data.Value(10_000_000 + i)
		if err := eng.Insert([][]data.Value{tuple}); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if _, _, err := srv.Query(ctx, q); err != nil {
			return 0, 0, err
		}
		total += time.Since(start)
	}
	st := srv.Stats()
	return float64(total.Microseconds()) / 1000 / float64(rounds),
		float64(st.RepairedSegments) / float64(rounds), nil
}
