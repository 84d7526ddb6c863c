package harness

import (
	"fmt"
	"time"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
	"h2o/internal/workload"
)

// RunFig13 regenerates Figure 13: online vs offline data reorganization.
// Four cases: starting from a row-major (Q1, Q2) or column-major (Q3, Q4)
// relation of 100 attributes, create a column group of 10 (Q1/Q3) or 20
// (Q2/Q4) attributes while answering an aggregation query over those
// attributes. Offline = stitch the group, then run the query as two separate
// steps; online = the fused reorganizing operator.
func RunFig13(cfg Config) (*Table, error) {
	const nAttrs = 100
	tb := data.Generate(data.SyntheticSchema("R", nAttrs), cfg.Rows100, cfg.Seed)
	rowRel := storage.BuildRowMajor(tb, false)
	colRel := storage.BuildColumnMajor(tb)

	cases := []struct {
		name  string
		rel   *storage.Relation
		width int
	}{
		{"Q1 (row-major -> 10-attr group)", rowRel, 10},
		{"Q2 (row-major -> 20-attr group)", rowRel, 20},
		{"Q3 (column-major -> 10-attr group)", colRel, 10},
		{"Q4 (column-major -> 20-attr group)", colRel, 20},
	}

	t := &Table{
		Title:   "fig13: online vs offline reorganization (create group + answer query)",
		Columns: []string{"case", "offline_ms", "online_ms", "improvement"},
	}
	for i, c := range cases {
		attrs := rangeAttrs(i*20, i*20+c.width-1) // distinct target sets per case
		q := query.Aggregation("R", expr.AggMax, attrs, nil)

		offline := measure(cfg.Repeats, func() {
			g, err := storage.Stitch(c.rel, attrs)
			if err != nil {
				panic(err)
			}
			if _, err := exec.ExecRow(g, q); err != nil {
				panic(err)
			}
		})
		online := measure(cfg.Repeats, func() {
			var groups []*storage.ColumnGroup
			if _, err := exec.Exec(c.rel, q, exec.ExecOpts{Strategy: exec.StrategyReorg, ReorgAttrs: attrs, NewGroups: &groups}); err != nil {
				panic(err)
			}
		})
		imp := 100 * (float64(offline) - float64(online)) / float64(offline)
		t.AddRow(c.name, ms(offline), ms(online), fmt.Sprintf("%.0f%%", imp))
	}
	t.Notes = append(t.Notes, "paper: online wins 38-61% from row-major and 22-37% from column-major")
	return t, nil
}

// RunFig14 regenerates Figure 14: the generic interpreted operator vs the
// specialized fused operator the paper generates at runtime (here a kernel
// compiled ahead of time), for an aggregation query (Q1) and an
// arithmetic-expression query (Q2) accessing 20 of 150 attributes, on a
// row-major layout and on a tailored column group.
func RunFig14(cfg Config) (*Table, error) {
	const nAttrs = 150
	tb := data.GenerateSelective(data.SyntheticSchema("R", nAttrs), cfg.Rows150, cfg.Seed)
	rowRel := storage.BuildRowMajor(tb, false)

	attrs := append([]data.AttrID{0}, rangeAttrs(10, 28)...)
	where := workload.DialPredicate(tb.Rows, 0.5)
	q1 := query.Aggregation("R", expr.AggMax, attrs, where)
	q2 := query.ArithExpression("R", attrs, where)

	grp := storage.BuildGroup(tb, attrs)
	colGroups := make([]*storage.ColumnGroup, tb.Schema.NumAttrs())
	for a := range colGroups {
		colGroups[a] = storage.BuildGroup(tb, []data.AttrID{a})
	}
	grpRel, err := storage.NewRelation(tb.Schema, tb.Rows, append([]*storage.ColumnGroup{grp}, colGroups...))
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "fig14: generic interpreted operator vs generated (specialized fused) code",
		Columns: []string{"case", "generic_ms", "generated_ms", "speedup"},
	}
	// A standalone full-length row-major group: the kernel-level comparison
	// wants one contiguous scan, independent of the relation's segmentation.
	rowGroup := storage.BuildGroup(tb, rangeAttrs(0, nAttrs-1))
	cases := []struct {
		name string
		rel  *storage.Relation
		g    *storage.ColumnGroup
		q    *query.Query
	}{
		{"Q1-Row", rowRel, rowGroup, q1},
		{"Q2-Row", rowRel, rowGroup, q2},
		{"Q1-GroupOfColumns", grpRel, grp, q1},
		{"Q2-GroupOfColumns", grpRel, grp, q2},
	}
	for _, c := range cases {
		genericD := measure(cfg.Repeats, func() {
			if _, err := exec.Exec(onlyGroupRel(tb, c.g), c.q, exec.ExecOpts{Strategy: exec.StrategyGeneric}); err != nil {
				panic(err)
			}
		})
		generatedD := measure(cfg.Repeats, func() { mustRow(c.g, c.q) })
		t.AddRow(c.name, ms(genericD), ms(generatedD), ratio(genericD, generatedD))
	}
	t.Notes = append(t.Notes, "paper: generated code wins 16%-1.7x by removing interpretation overhead")
	return t, nil
}

// onlyGroupRel wraps a single group as a relation restricted to that group
// (no schema-coverage requirement), so the generic operator reads the same
// physical layout as the generated one.
func onlyGroupRel(tb *data.Table, g *storage.ColumnGroup) *storage.Relation {
	return storage.WrapGroups(tb.Schema, tb.Rows, []*storage.ColumnGroup{g})
}

// RunAblationWindow sweeps the initial monitoring window size on the §4.1
// workload: small windows adapt eagerly (more reorganizations, earlier
// benefit), large windows adapt conservatively.
func RunAblationWindow(cfg Config) (*Table, error) {
	tb, qs := fig7Sequence(cfg)
	sizes := []int{5, 10, 20, 40}
	if cfg.Quick {
		sizes = []int{5, 20}
	}
	t := &Table{
		Title:   "ablation-window: effect of the initial monitoring window size (Fig. 7 workload)",
		Columns: []string{"window", "total_ms", "adaptations", "reorgs", "groups_created"},
	}
	for _, w := range sizes {
		opts := core.DefaultOptions()
		opts.Window.InitialSize = w
		e := core.NewH2O(tb, opts)
		var total time.Duration
		for _, q := range qs {
			_, info, err := e.Execute(q)
			if err != nil {
				return nil, err
			}
			total += info.Duration
		}
		st := e.Stats()
		t.AddRow(itoa(w), ms(total), itoa(st.Adaptations), itoa(st.Reorgs), itoa(st.GroupsCreated))
	}
	return t, nil
}

// RunAblationGroups sweeps the MaxGroups layout budget: a tight cap forces
// eviction and re-creation; a loose cap trades memory for stability.
func RunAblationGroups(cfg Config) (*Table, error) {
	tb, qs := fig7Sequence(cfg)
	caps := []int{tb.Schema.NumAttrs() + 1, tb.Schema.NumAttrs() + 4, tb.Schema.NumAttrs() * 2}
	t := &Table{
		Title:   "ablation-groups: effect of the MaxGroups layout budget (Fig. 7 workload)",
		Columns: []string{"max_groups", "total_ms", "groups_created", "groups_dropped"},
	}
	for _, capN := range caps {
		opts := core.DefaultOptions()
		opts.Window.InitialSize = 20
		opts.MaxGroups = capN
		e := core.NewH2O(tb, opts)
		var total time.Duration
		for _, q := range qs {
			_, info, err := e.Execute(q)
			if err != nil {
				return nil, err
			}
			total += info.Duration
		}
		st := e.Stats()
		t.AddRow(itoa(capN), ms(total), itoa(st.GroupsCreated), itoa(st.GroupsDropped))
	}
	return t, nil
}

// RunAblationOscillate runs A/B oscillating workloads with different
// periods: lazy layout creation must damp reorganization churn for fast
// oscillations (§3.2, "H2O minimizes the effect of false-positives due to
// oscillating workloads by applying the lazy data layouts generation
// approach").
func RunAblationOscillate(cfg Config) (*Table, error) {
	const nAttrs = 150
	tb := data.Generate(data.SyntheticSchema("R", nAttrs), cfg.Rows150, cfg.Seed)
	n := 80
	if cfg.Quick {
		n = 40
	}
	periods := []int{2, 5, 20}
	t := &Table{
		Title:   "ablation-oscillate: reorganization churn under oscillating workloads",
		Columns: []string{"period", "total_ms", "reorgs", "groups_created"},
	}
	for _, p := range periods {
		qs := workload.OscillatingSequence("R", nAttrs, n, p, cfg.Seed)
		opts := core.DefaultOptions()
		opts.Window.InitialSize = 10
		e := core.NewH2O(tb, opts)
		var total time.Duration
		for _, q := range qs {
			_, info, err := e.Execute(q)
			if err != nil {
				return nil, err
			}
			total += info.Duration
		}
		st := e.Stats()
		t.AddRow(itoa(p), ms(total), itoa(st.Reorgs), itoa(st.GroupsCreated))
	}
	t.Notes = append(t.Notes, "lazy creation bounds churn: at most one group per pattern is ever created, regardless of oscillation rate")
	return t, nil
}
