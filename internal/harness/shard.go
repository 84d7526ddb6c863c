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
	"h2o/internal/shard"
)

// RunShard measures sharded scatter-gather serving (not a paper
// experiment): the same relation is dealt round-robin across 1/2/4/8
// in-process shards and the same workload runs against each router. Two
// costs are swept per shard count: the scatter-gather latency of a
// full-relation aggregate (the partials merge law gathers per-shard
// SegPartials into one answer), and the serving-layer repair latency
// under tail appends — where the payoff of per-shard fingerprint
// components shows up as exactly one shard rescanning one segment per
// append, regardless of shard count.
//
//	h2obench -exp shard
func RunShard(cfg Config) (*Table, error) {
	const (
		nAttrs = 8
		segCap = 1024
		rounds = 16 // append+query rounds averaged per cell
	)
	rows := cfg.Rows150
	if rows < 8*segCap {
		rows = 8 * segCap
	}

	t := &Table{
		Title: "shard: scatter-gather and repair latency vs shard count (same rows, round-robin deal)",
		Columns: []string{"shards", "exec_ms", "qps", "repair_ms",
			"repaired_segs/query"},
	}

	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
	counts := []int{1, 2, 4, 8}
	if cfg.Quick {
		counts = []int{1, 4}
	}
	for _, n := range counts {
		tb := data.GenerateTimeSeries(data.SyntheticSchema("R", nAttrs), rows, cfg.Seed)
		opts := core.DefaultOptions()
		opts.Mode = core.ModeFrozen // only the appends mutate
		opts.SegmentCapacity = segCap
		opts.Shards = n
		r := shard.New(tb, opts)

		// Scatter-gather latency: direct router executes, bypassing the
		// serving cache so every query pays the merge-law gather.
		execD := measure(cfg.Repeats, func() {
			for i := 0; i < rounds; i++ {
				if _, _, err := r.Execute(q); err != nil {
					panic(err)
				}
			}
		})
		execMs := float64(execD.Microseconds()) / 1000 / float64(rounds)
		qps := "-"
		if execD > 0 {
			qps = fmt.Sprintf("%.0f", float64(rounds)/execD.Seconds())
		}

		// Repair latency through the serving layer: seed the partials
		// payload, then alternate tail appends with repaired queries.
		srv := server.New(server.TableBackend{Name: tb.Schema.Name, T: r}, server.Config{Workers: 2})
		ctx := context.Background()
		if _, _, err := srv.Query(ctx, q); err != nil {
			srv.Close()
			r.Close()
			return nil, err
		}
		tuple := make([]data.Value, nAttrs)
		var total time.Duration
		for i := 0; i < rounds; i++ {
			tuple[0] = data.Value(10_000_000 + i)
			if err := r.Insert([][]data.Value{tuple}); err != nil {
				srv.Close()
				r.Close()
				return nil, err
			}
			start := time.Now()
			if _, _, err := srv.Query(ctx, q); err != nil {
				srv.Close()
				r.Close()
				return nil, err
			}
			total += time.Since(start)
		}
		st := srv.Stats()
		srv.Close()
		r.Close()

		t.AddRow(itoa(n),
			fmt.Sprintf("%.3f", execMs), qps,
			fmt.Sprintf("%.3f", float64(total.Microseconds())/1000/float64(rounds)),
			fmt.Sprintf("%.1f", float64(st.RepairedSegments)/float64(rounds)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d rows, segment capacity %d, %d queries per cell; shards=1 is the unsharded baseline", rows, segCap, rounds),
		"repaired_segs/query stays ~1 at every shard count: a tail append moves one shard's fingerprint component, so repair rescans exactly one segment",
		"exec_ms is the scatter-gather path: per-shard SegPartials merged under the partials merge law, fingerprints combined order-sensitively")
	return t, nil
}
