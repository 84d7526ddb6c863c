// Command h2obench regenerates the tables and figures of the paper's
// evaluation (§4). Each experiment id maps to one table or figure:
//
//	h2obench -exp fig7                # one experiment
//	h2obench -exp all                 # the full evaluation
//	h2obench -list                    # enumerate experiments
//	h2obench -exp fig1 -rows250 200000 -repeats 5
//	h2obench -exp table1 -csv         # machine-readable output
//
// Row counts are scaled down from the paper's 50-100M-row relations so a
// laptop run finishes in minutes; the shapes (who wins, crossovers, factors)
// are what the harness reproduces.
//
// Beyond the paper, -exp serve sweeps the concurrent serving layer: for
// each client count it measures queries-per-second on a cache-hit workload
// (every client replays one query) and a read-only cache-miss workload
// (clients rotate distinct queries, cache disabled), so the scaling of the
// shared-read lock and the sharded result cache is visible on multi-core
// hosts:
//
//	h2obench -exp serve -clients 1,2,4,8,16 -duration 2s
//
// -exp segments measures the segmented-storage contract: appends and
// hot-segment reorganizations stay O(segment size) as the relation grows,
// and selective scans over append-ordered data skip cold segments via
// per-segment zone maps.
//
// -exp spill measures the tiered-storage contract: as the memory budget
// shrinks below the relation size, selective scans stay flat (zone maps
// prune spilled cold segments with zero disk reads) while full scans pay
// one page-in per spilled segment they need:
//
//	h2obench -exp spill
//
// -exp repair measures partial-result reuse: a repeated full-relation
// aggregate under tail appends is delta-repaired (only the changed tail
// segment is rescanned, the rest comes from cached per-segment partials),
// so its cost stays flat as the relation doubles while full recomputation
// grows with the segment count:
//
//	h2obench -exp repair
//
// -exp groupby extends the repair sweep to GROUP BY: a repeated grouped
// aggregate under tail appends is repaired by merging the cached
// per-segment group maps with a rescan of only the appended tail, so its
// cost stays flat as the relation doubles while full re-aggregation
// rebuilds every segment's groups:
//
//	h2obench -exp groupby
//
// -exp shard sweeps sharded scatter-gather serving: the same relation is
// dealt round-robin across 1/2/4/8 in-process shards and the sweep
// reports scatter-gather latency (per-shard partials merged under the
// partials merge law) and serving-layer repair latency under tail
// appends — which stays at one rescanned segment per append at every
// shard count, because an append moves exactly one shard's fingerprint
// component:
//
//	h2obench -exp shard
//
// Finally, -bench-report turns `go test -bench . -benchtime=1x -json`
// output (read on stdin) into a normalized bench.json on stdout — the
// per-commit perf-trajectory artifact CI uploads:
//
//	go test -run '^$' -bench . -benchtime=1x -json ./... | h2obench -bench-report > bench.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"h2o"
	"h2o/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig1, fig2a-c, fig7, table1, fig8, fig9, fig10a-f, fig11, fig12, fig13, fig14, ablation-window, ablation-groups, ablation-oscillate, segments) or 'all'")
		list    = flag.Bool("list", false, "list available experiments and exit")
		rows150 = flag.Int("rows150", 0, "rows of the 150-attribute relation (default 100000)")
		rows250 = flag.Int("rows250", 0, "rows of the 250-attribute relation (default 50000)")
		rows100 = flag.Int("rows100", 0, "rows of the 100-attribute relation (default 100000)")
		rowsSky = flag.Int("rowssky", 0, "rows of the simulated PhotoObjAll table (default 20000)")
		repeats = flag.Int("repeats", 0, "timing repetitions for kernel experiments (default 3)")
		seed    = flag.Int64("seed", 0, "workload/data seed (default 2014)")
		quick   = flag.Bool("quick", false, "tiny scale for smoke runs")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")

		clients  = flag.String("clients", "1,2,4,8", "client counts for -exp serve")
		duration = flag.Duration("duration", time.Second, "per-point measurement time for -exp serve")
		rowsSrv  = flag.Int("rowsserve", 50_000, "rows of the serving-sweep table")

		benchReport = flag.Bool("bench-report", false, "read 'go test -bench -json' output on stdin, write normalized bench.json to stdout")
	)
	flag.Parse()

	if *benchReport {
		if err := emitBenchReport(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "h2obench: bench-report: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, r := range harness.Experiments() {
			fmt.Printf("  %-18s %s\n", r.Name, r.Description)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "h2obench: -exp is required (try -list)")
		os.Exit(2)
	}
	if *exp == "serve" {
		if err := serveSweep(*clients, *duration, *rowsSrv, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "h2obench: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := harness.Config{
		Rows150: *rows150, Rows250: *rows250, Rows100: *rows100, RowsSky: *rowsSky,
		Repeats: *repeats, Seed: *seed, Quick: *quick,
	}

	run := func(name string, fn func(harness.Config) (*harness.Table, error)) {
		t, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h2obench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Fprint(os.Stdout)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, r := range harness.Experiments() {
			run(r.Name, r.Run)
		}
		return
	}
	run(*exp, func(c harness.Config) (*harness.Table, error) { return harness.Run(*exp, c) })
}

// serveSweep measures serving-layer throughput against client count: a
// cache-hit workload (all clients replay one query) and a read-only
// cache-miss workload (clients rotate distinct queries, cache disabled).
func serveSweep(clientsSpec string, dur time.Duration, rows int, csv bool) error {
	counts, err := parseCounts(clientsSpec)
	if err != nil {
		return err
	}

	db := h2o.NewDB()
	db.CreateTableFrom(h2o.SyntheticSchema("R", 16), rows, 2014)
	queries := make([]*h2o.Query, 16)
	for i := range queries {
		q, err := db.Parse(fmt.Sprintf("select max(a%d) from R where a%d < 0", i%16, (i+1)%16))
		if err != nil {
			return err
		}
		queries[i] = q
	}
	// Settle the adaptive machinery so measurements see the steady state.
	for _, q := range queries {
		if _, _, err := db.Exec(q); err != nil {
			return err
		}
	}

	if csv {
		fmt.Println("clients,cachehit_qps,readonly_qps")
	} else {
		fmt.Printf("serving-layer sweep: %d rows, %v per point\n", rows, dur)
		fmt.Printf("%8s %16s %16s\n", "clients", "cache-hit qps", "read-only qps")
	}
	for _, c := range counts {
		hitQPS, err := measure(db, h2o.ServerConfig{}, queries[:1], c, dur)
		if err != nil {
			return err
		}
		missQPS, err := measure(db, h2o.ServerConfig{CacheEntries: -1}, queries, c, dur)
		if err != nil {
			return err
		}
		if csv {
			fmt.Printf("%d,%.0f,%.0f\n", c, hitQPS, missQPS)
		} else {
			fmt.Printf("%8d %16.0f %16.0f\n", c, hitQPS, missQPS)
		}
	}
	return nil
}

// measure runs clients goroutines against a fresh server for dur and
// returns aggregate queries per second.
func measure(db *h2o.DB, cfg h2o.ServerConfig, queries []*h2o.Query, clients int, dur time.Duration) (float64, error) {
	srv := db.Serve(cfg)
	defer srv.Close()
	ctx := context.Background()
	// Warm: one pass so the cache-hit workload actually hits.
	for _, q := range queries {
		if _, _, err := srv.Query(ctx, q); err != nil {
			return 0, err
		}
	}

	var ops atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := srv.Query(ctx, queries[i%len(queries)]); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				ops.Add(1)
			}
		}(c)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err != nil {
		return 0, err
	}
	return float64(ops.Load()) / elapsed.Seconds(), nil
}

func parseCounts(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad client count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no client counts in %q", spec)
	}
	return out, nil
}
