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
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"h2o/internal/harness"
)

func main() {
	experiments := harness.Experiments()
	ids := make([]string, len(experiments))
	for i, r := range experiments {
		ids[i] = r.Name
	}
	var (
		exp     = flag.String("exp", "", "experiment id ("+strings.Join(ids, ", ")+") or 'all'")
		list    = flag.Bool("list", false, "list available experiments and exit")
		rows150 = flag.Int("rows150", 0, "rows of the 150-attribute relation (default 100000)")
		rows250 = flag.Int("rows250", 0, "rows of the 250-attribute relation (default 50000)")
		rows100 = flag.Int("rows100", 0, "rows of the 100-attribute relation (default 100000)")
		rowsSky = flag.Int("rowssky", 0, "rows of the simulated PhotoObjAll table (default 20000)")
		repeats = flag.Int("repeats", 0, "timing repetitions for kernel experiments (default 3)")
		seed    = flag.Int64("seed", 0, "workload/data seed (default 2014)")
		quick   = flag.Bool("quick", false, "tiny scale for smoke runs")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments {
			fmt.Printf("  %-18s %s\n", r.Name, r.Description)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "h2obench: -exp is required (try -list)")
		os.Exit(2)
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
		for _, r := range experiments {
			run(r.Name, r.Run)
		}
		return
	}
	run(*exp, func(c harness.Config) (*harness.Table, error) { return harness.Run(*exp, c) })
}
