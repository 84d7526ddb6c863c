// Package harness regenerates every table and figure of the paper's
// evaluation (§4). Each experiment id maps to a runner that builds the
// relation and query sequence, executes it on the relevant engines or
// kernels, and returns the same rows/series the paper reports.
//
// Absolute times differ from the paper (different hardware, different row
// counts, Go instead of icc-compiled C++); the harness is about the *shape*
// of each result — who wins, by what factor, where the crossovers fall.
// cmd/h2obench is the command-line front end.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Config scales and seeds the experiments. Zero values select defaults
// sized for a laptop run (the paper uses 50-100M-row relations on a 128 GB
// server; the shapes reproduce at these scales because the measured effects
// are per-tuple, layout-driven effects).
type Config struct {
	Rows150 int // rows of the 150-attribute relation (§4.1, §4.2); default 100k
	Rows250 int // rows of the 250-attribute relation (Figs. 1-2); default 50k
	Rows100 int // rows of the 100-attribute relation (Fig. 13); default 100k
	RowsSky int // rows of the simulated PhotoObjAll table (Fig. 8); default 20k
	Repeats int // timing repetitions for kernel-level experiments; default 3
	Seed    int64
	Quick   bool // trims sweeps for tests/CI
}

func (c Config) withDefaults() Config {
	if c.Rows150 <= 0 {
		c.Rows150 = 100_000
	}
	if c.Rows250 <= 0 {
		c.Rows250 = 50_000
	}
	if c.Rows100 <= 0 {
		c.Rows100 = 100_000
	}
	if c.RowsSky <= 0 {
		c.RowsSky = 20_000
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.Seed == 0 {
		c.Seed = 2014
	}
	if c.Quick {
		c.Rows150 = min(c.Rows150, 8_000)
		c.Rows250 = min(c.Rows250, 5_000)
		c.Rows100 = min(c.Rows100, 8_000)
		c.RowsSky = min(c.RowsSky, 4_000)
		c.Repeats = 1
	}
	return c
}

// Table is an experiment's output: a titled grid of cells, printable as an
// aligned text table or CSV.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries the experiment's headline observation (e.g. measured
	// speedups), recorded into EXPERIMENTS.md.
	Notes []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Runner regenerates one experiment.
type Runner struct {
	Name        string
	Description string
	Run         func(Config) (*Table, error)
}

// Experiments lists every runner in presentation order. Every runner applies
// Config defaults itself, so direct invocation and Run() behave identically.
func Experiments() []Runner {
	rs := experiments()
	for i := range rs {
		inner := rs[i].Run
		rs[i].Run = func(c Config) (*Table, error) { return inner(c.withDefaults()) }
	}
	return rs
}

func experiments() []Runner {
	return []Runner{
		{"fig1", "Row vs column crossover: select-project-aggregate, ~40% selectivity", RunFig1},
		{"fig2a", "Projectivity sweep, selectivity 100% (no where clause)", func(c Config) (*Table, error) { return RunFig2(c, -1) }},
		{"fig2b", "Projectivity sweep, selectivity 40%", func(c Config) (*Table, error) { return RunFig2(c, 0.4) }},
		{"fig2c", "Projectivity sweep, selectivity 1%", func(c Config) (*Table, error) { return RunFig2(c, 0.01) }},
		{"fig7", "Adaptive 100-query sequence: H2O vs row vs column vs optimal", RunFig7},
		{"table1", "Cumulative execution time of the Fig. 7 sequence", RunTable1},
		{"fig8", "H2O vs AutoPart on the simulated SkyServer workload", RunFig8},
		{"fig9", "Static vs dynamic adaptation window on a shifting workload", RunFig9},
		{"fig10a", "Projections vs #attributes (no where clause)", func(c Config) (*Table, error) { return RunFig10Attrs(c, "fig10a") }},
		{"fig10b", "Aggregations vs #attributes (no where clause)", func(c Config) (*Table, error) { return RunFig10Attrs(c, "fig10b") }},
		{"fig10c", "Arithmetic expressions vs #attributes (no where clause)", func(c Config) (*Table, error) { return RunFig10Attrs(c, "fig10c") }},
		{"fig10d", "Projections (20 attrs) vs selectivity", func(c Config) (*Table, error) { return RunFig10Sel(c, "fig10d") }},
		{"fig10e", "Aggregations (20 attrs) vs selectivity", func(c Config) (*Table, error) { return RunFig10Sel(c, "fig10e") }},
		{"fig10f", "Arithmetic expressions (20 attrs) vs selectivity", func(c Config) (*Table, error) { return RunFig10Sel(c, "fig10f") }},
		{"fig11", "Penalty of accessing a subset of a column group", RunFig11},
		{"fig12", "Accessing a query's attributes from 2-5 column groups", RunFig12},
		{"fig13", "Online vs offline data reorganization", RunFig13},
		{"fig14", "Generic interpreted operator vs generated code", RunFig14},
		{"ablation-window", "Ablation: monitoring window size", RunAblationWindow},
		{"ablation-groups", "Ablation: MaxGroups layout-budget cap", RunAblationGroups},
		{"ablation-oscillate", "Ablation: lazy creation damping on oscillating workloads", RunAblationOscillate},
	}
}

// Run dispatches an experiment by id.
func Run(name string, cfg Config) (*Table, error) {
	for _, r := range Experiments() {
		if r.Name == name {
			return r.Run(cfg)
		}
	}
	var known []string
	for _, r := range Experiments() {
		known = append(known, r.Name)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("harness: unknown experiment %q (known: %s)", name, strings.Join(known, ", "))
}

// measure runs f repeats times and returns the minimum duration — the
// standard way to strip scheduling noise from kernel timings.
func measure(repeats int, f func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// ms formats a duration in milliseconds with 3 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// ratio formats a/b.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
