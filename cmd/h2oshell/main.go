// Command h2oshell is an interactive SQL shell on top of the adaptive
// engine. It creates a synthetic wide table and lets you watch the layout
// and execution strategy evolve query by query:
//
//	h2oshell -attrs 50 -rows 100000
//	h2o> select max(a1), max(a5) from R where a0 < 0
//	h2o> select a3, sum(a1) from R group by a3 limit 10
//	h2o> \layout        # current column groups
//	h2o> \stats         # adaptations, reorganizations, window size
//	h2o> \cache         # serving layer: result cache hits, executions
//	h2o> \replay trace.sql
//	h2o> \quit
//
// Statements run through the serving layer (DB.QueryCtx): repeated selects
// hit the versioned result cache until an insert or reorganization bumps
// the relation version. -parallel partitions fused scans across goroutines.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"h2o"
)

func main() {
	var (
		attrs    = flag.Int("attrs", 50, "attributes of the synthetic table R")
		rows     = flag.Int("rows", 100_000, "rows of the synthetic table R")
		seed     = flag.Int64("seed", 2014, "data seed")
		maxRows  = flag.Int("display", 5, "result rows to display")
		parallel = flag.Int("parallel", 0, "goroutines per fused scan (0 = serial)")
	)
	flag.Parse()

	opts := h2o.DefaultOptions()
	opts.Parallelism = *parallel
	db := h2o.NewDBWith(opts)
	defer db.Close()
	db.CreateTableFrom(h2o.SyntheticSchema("R", *attrs), *rows, *seed)
	fmt.Printf("table R: %d attributes (a0..a%d), %d rows, column-major start\n", *attrs, *attrs-1, *rows)
	fmt.Println(`type SQL, or \layout, \stats, \cache, \explain <sql>, \replay <file>, \save <file>, \load <file>, \quit`)

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("h2o> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\layout`:
			sig, err := db.LayoutSignature("R")
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(sig)
		case line == `\stats`:
			e, err := db.Engine("R")
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			st := e.Stats()
			fmt.Printf("queries=%d adaptations=%d reorgs=%d groups_created=%d groups_dropped=%d window=%d version=%d\n",
				st.Queries, st.Adaptations, st.Reorgs, st.GroupsCreated, st.GroupsDropped,
				e.WindowSize(), e.Version())
		case line == `\cache`:
			st := db.ServeStats()
			fmt.Printf("submitted=%d executed=%d cache_hits=%d cache_misses=%d canceled=%d uncacheable=%d republished=%d repaired=%d repaired_segments=%d memo_hits=%d\n",
				st.Submitted, st.Executed, st.CacheHits, st.CacheMisses, st.Canceled, st.Uncacheable, st.Republished,
				st.Repaired, st.RepairedSegments, st.MemoHits)
		case strings.HasPrefix(line, `\explain `):
			src := strings.TrimSpace(strings.TrimPrefix(line, `\explain `))
			q, err := db.Parse(src)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			e, err := db.Engine(q.Table)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			ex, err := e.Explain(q)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("plan: %v (est %.3gs)\n", ex.Strategy, float64(ex.EstimatedCost))
			for _, alt := range ex.Alternatives {
				fmt.Printf("  %-14v est %.3gs\n", alt.Strategy, float64(alt.Cost))
			}
			fmt.Printf("groups touched: %s\n", strings.Join(ex.CoveringGroups, " "))
			if ex.PendingProposal != nil {
				fmt.Printf("pending layout proposal covers this query: %s\n", ex.PendingProposal)
			}
		case strings.HasPrefix(line, `\replay `):
			replay(db, strings.TrimSpace(strings.TrimPrefix(line, `\replay `)), *maxRows)
		case strings.HasPrefix(line, `\save `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\save `))
			if err := db.SaveTable("R", path); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("saved R (data + adapted layout) to", path)
			}
		case strings.HasPrefix(line, `\load `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\load `))
			name, err := db.LoadTable(path)
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("restored table", name, "with its adapted layout")
			}
		default:
			execute(db, line, *maxRows)
		}
	}
}

func execute(db *h2o.DB, src string, maxRows int) {
	res, info, err := db.QueryCtx(context.Background(), src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printResult(res, maxRows)
	event := ""
	if info.Reorganized {
		event = fmt.Sprintf("  [reorganized: new group over %d attributes]", len(info.NewGroup))
	}
	if info.CacheHit {
		event += "  [result cache hit]"
	}
	fmt.Printf("-- %d row(s), %v, strategy=%v layout=%v%s\n",
		res.Rows, info.Duration.Round(100), info.Strategy, info.Layout, event)
}

func replay(db *h2o.DB, path string, maxRows int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		n++
		res, info, err := db.QueryCtx(context.Background(), line)
		if err != nil {
			fmt.Printf("q%d error: %v\n", n, err)
			continue
		}
		event := ""
		if info.Reorganized {
			event = " REORG"
		}
		if info.CacheHit {
			event += " CACHED"
		}
		fmt.Printf("q%-4d %8v  %v  %d row(s)%s\n", n, info.Duration.Round(100), info.Strategy, res.Rows, event)
	}
	if err := sc.Err(); err != nil {
		fmt.Println("error:", err)
	}
	_ = maxRows
}

// printResult renders the result as an aligned table: header, rule, then up
// to maxRows rows. Column widths come from the displayed cells, so grouped
// output (one row per key, the key columns leading) lines up readably.
func printResult(res *h2o.Result, maxRows int) {
	n := res.Rows
	truncated := false
	if n > maxRows {
		n, truncated = maxRows, true
	}
	w := res.Width()
	widths := make([]int, w)
	rows := make([][]string, n)
	for j, c := range res.Cols {
		widths[j] = len(c)
	}
	for i := 0; i < n; i++ {
		rows[i] = make([]string, w)
		for j := 0; j < w; j++ {
			rows[i][j] = fmt.Sprint(res.At(i, j))
			if len(rows[i][j]) > widths[j] {
				widths[j] = len(rows[i][j])
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for j, c := range cells {
			parts[j] = fmt.Sprintf("%*s", widths[j], c)
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	line(res.Cols)
	rule := make([]string, w)
	for j := range rule {
		rule[j] = strings.Repeat("-", widths[j])
	}
	fmt.Println(strings.Join(rule, "-+-"))
	for _, r := range rows {
		line(r)
	}
	if truncated {
		fmt.Printf("... (%d more)\n", res.Rows-maxRows)
	}
}
