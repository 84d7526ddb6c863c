package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// printReport lists every metric of one run by name, with its unit and,
// for percentiles, the number of samples behind it.
func printReport(w io.Writer, workload string, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		samples := ""
		if c, ok := rep.Samples[n]; ok {
			samples = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "%-12s %-42s %16.4f %-6s%s\n", workload, n, m.Value, m.Unit, samples)
	}
	counts := make([]string, 0, len(rep.Counts))
	for k, v := range rep.Counts {
		counts = append(counts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(counts)
	fmt.Fprintf(w, "%-12s attempted=%d failed=%d %s\n", workload, rep.Attempted, rep.Failed, strings.Join(counts, " "))
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "%-12s %s\n", workload, n)
	}
}

// hostShape is recorded with every result file: numbers from different
// hosts are not comparable, and -compare says so.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	RAMMiB     int    `json:"ram_mib"`
	Commit     string `json:"commit"`
}

func host() hostShape {
	h := hostShape{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Kernel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		var kb int
		if _, err := fmt.Sscanf(string(b), "MemTotal: %d kB", &kb); err == nil {
			h.RAMMiB = kb / 1024
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// summary is one metric over the runs of a result file.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Values  []float64 `json:"values"`
	Samples int       `json:"samples,omitempty"`
}

// quartiles follows Python's statistics.quantiles(values, n=4), the method
// the driver uses, so spreads computed here and there agree.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	OpCounts  map[string]int     `json:"op_counts"`
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      hostShape                  `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Scale     float64                    `json:"scale"`
	Repeat    int                        `json:"repeat"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func summarize(defs []metricDef, reps []*report) map[string]summary {
	out := make(map[string]summary, len(defs))
	for _, d := range defs {
		s := summary{Unit: d.unit}
		for _, r := range reps {
			s.Values = append(s.Values, r.Metrics[d.name].Value)
			s.Samples = r.Samples[d.name]
		}
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		out[d.name] = s
	}
	return out
}

// fullRun is the one command that prints everything: each workload timed
// and traced, repeat times over, with medians and quartiles per metric.
// It returns the process exit code: non-zero on any wrong answer, failed
// op or failed self-check.
func fullRun(ctx context.Context, cfg runConfig, repeat int, out, traceOut string) int {
	if repeat < 1 {
		repeat = 1
	}
	rf := &resultFile{Host: host(), Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Repeat: repeat,
		Workloads: make(map[string]*workloadResult)}
	fmt.Printf("host: %+v\nseed=%d seconds=%g scale=%g repeat=%d\n", rf.Host, cfg.seed, cfg.seconds, cfg.scale, repeat)
	code := 0
	for _, w := range workloads {
		checkClients(w)
		var timed, tracedReps []*report
		wr := &workloadResult{Correct: true, OpCounts: map[string]int{}}
		for r := 0; r < repeat; r++ {
			tr := ""
			if traceOut != "" && r == repeat-1 {
				tr = strings.TrimSuffix(traceOut, ".jsonl") + "." + w.name + ".jsonl"
			}
			a, err := timedRun(ctx, w, cfg)
			if err != nil {
				fatal(err)
			}
			b, err := tracedRun(ctx, w, cfg, tr)
			if err != nil {
				fatal(err)
			}
			timed, tracedReps = append(timed, a), append(tracedReps, b)
			for _, rep := range []*report{a, b} {
				wr.Correct = wr.Correct && rep.Correct
				wr.Attempted += rep.Attempted
				wr.Failed += rep.Failed
				wr.Notes = append(wr.Notes, rep.Notes...)
				for k, v := range rep.Counts {
					wr.OpCounts[k] = v
				}
			}
			if repeat == 1 {
				printReport(os.Stdout, w.name, a)
				printReport(os.Stdout, w.name, b)
			}
		}
		wr.EndToEnd, wr.PerLayer = summarize(endToEnd, timed), summarize(perLayer, tracedReps)
		rf.Workloads[w.name] = wr
		if repeat > 1 {
			printSummaries(os.Stdout, w.name, wr)
		}
		if !wr.Correct || wr.Failed > 0 {
			code = 1
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rf, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	return code
}

func printSummaries(w io.Writer, workload string, wr *workloadResult) {
	for _, part := range []struct {
		defs []metricDef
		sums map[string]summary
	}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
		for _, d := range part.defs {
			s := part.sums[d.name]
			fmt.Fprintf(w, "%-12s %-42s %16.4f %-6s q1=%.4f q3=%.4f (runs=%d", workload, d.name, s.Median, s.Unit, s.Q1, s.Q3, len(s.Values))
			if s.Samples > 0 {
				fmt.Fprintf(w, ", n=%d", s.Samples)
			}
			fmt.Fprintln(w, ")")
		}
	}
	fmt.Fprintf(w, "%-12s attempted=%d failed=%d correct=%v\n", workload, wr.Attempted, wr.Failed, wr.Correct)
	for _, n := range wr.Notes {
		fmt.Fprintf(w, "%-12s %s\n", workload, n)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program itself reads: the
// regression bounds -compare applies, and the names the test pins.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var last error
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if err != nil {
			last = err
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &spec, nil
	}
	return nil, last
}

// compareFiles prints one row per workload × end-to-end metric and applies
// BENCHMARK.json's bounds. A metric whose run-to-run spread on the old side
// is wider than its bound is reported as unresolved, not as unchanged.
func compareFiles(args []string, specPath string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	var files [2]resultFile
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", p, err))
		}
	}
	old, cur := files[0], files[1]
	if old.Host.NProc != cur.Host.NProc || old.Host.Go != cur.Host.Go || old.Seconds != cur.Seconds || old.Scale != cur.Scale {
		fmt.Printf("warning: host or settings differ (%+v %gs x%g vs %+v %gs x%g)\n",
			old.Host, old.Seconds, old.Scale, cur.Host, cur.Seconds, cur.Scale)
	}
	fmt.Printf("%-12s %-16s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		ow, nw := old.Workloads[w.name], cur.Workloads[w.name]
		if ow == nil || nw == nil {
			fmt.Printf("%-12s missing from one side\n", w.name)
			code = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			o, n := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			worse := ratio(n.Median-o.Median, o.Median) // share of the old median by which it got worse
			if m.Better == "higher" {
				worse = -worse
			}
			spread := ratio(o.Q3-o.Q1, o.Median)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict, code = "REGRESSION", 1
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				w.name, m.Name, o.Median, n.Median, 100*ratio(n.Median-o.Median, o.Median), 100*spread, 100*m.Bound, verdict)
		}
		of, nf := ratio(float64(ow.Failed), float64(ow.Attempted)), ratio(float64(nw.Failed), float64(nw.Attempted))
		verdict := "ok"
		if nf > of || !nw.Correct {
			verdict, code = "REGRESSION", 1
		}
		fmt.Printf("%-12s %-16s %14.6f %14.6f %32s\n", w.name, "fail_ratio", of, nf, verdict)
	}
	return code
}
