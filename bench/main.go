// Command bench is the repository's benchmark: five SQL-in → result-out
// workloads driven through DB.QueryCtx in a closed loop, six end-to-end
// metrics measured with tracing off, and a per-layer ledger measured from
// outside by a separate traced run. See README.md in this directory.
//
// Driver form (one workload, one mode; the last stdout line is the result):
//
//	bench --workload serve_hot --seed 7 --seconds 10 --trace 0
//
// Full form (every workload, timed then traced, medians over -repeat):
//
//	bench -seed 2014 -repeat 5 -out bench-result.json
//	bench -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload, in the mode -trace selects, and print the driver's result line")
		seed     = flag.Int64("seed", 2014, "seed of the generated tables and op streams")
		seconds  = flag.Float64("seconds", 10, "length of each timed run")
		trace    = flag.Int("trace", 0, "with -workload: 0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		scale    = flag.Float64("scale", 1, "table-size and traced-op-count multiplier (smoke runs use 0.01)")
		repeat   = flag.Int("repeat", 1, "full form: runs per workload; medians and quartiles are reported")
		out      = flag.String("out", "", "full form: write the result file here")
		traceOut = flag.String("trace-out", "", "write the traced run's spans here, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
		spec     = flag.String("benchmark-json", "", "path of BENCHMARK.json (default: ./ or ../)")
		workdir  = flag.String("workdir", ".bench_build/tmp", "directory for spill files and scratch stores")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args(), *spec))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: *scale, workdir: *workdir, setups: 3}
	ctx := context.Background()

	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		checkClients(w)
		var rep *report
		var err error
		if *trace == 0 {
			rep, err = timedRun(ctx, w, cfg)
		} else {
			rep, err = tracedRun(ctx, w, cfg, *traceOut)
		}
		if err != nil {
			fatal(err)
		}
		printReport(os.Stdout, w.name, rep)
		line, _ := json.Marshal(rep)
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
		return
	}
	os.Exit(fullRun(ctx, cfg, *repeat, *out, *traceOut))
}

// checkClients refuses a load shape the host cannot carry: a closed-loop
// client that shares a CPU measures the scheduler, not the store.
func checkClients(w *workloadSpec) {
	if n := runtime.NumCPU(); w.clients > n {
		fatal(fmt.Errorf("workload %s drives %d clients but the host has %d CPUs", w.name, w.clients, n))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
