package harness

import (
	"fmt"

	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/storage"
)

// RunAblationZonemap measures block-skipping zone maps (the lightweight end
// of the paper's "adaptive indexing together with adaptive data layouts"
// future-work direction) on append-ordered data: range predicates on the
// ordered attribute touch a contiguous run of blocks and the rest of the
// scan is skipped. On uniformly shuffled data nothing is skippable — the
// last row shows the no-win regime honestly.
func RunAblationZonemap(cfg Config) (*Table, error) {
	const nAttrs = 8
	rows := cfg.Rows150
	ordered := data.GenerateTimeSeries(data.SyntheticSchema("R", nAttrs), rows, cfg.Seed)
	gOrd := storage.BuildGroup(ordered, rangeAttrs(0, nAttrs-1))
	zmOrd := storage.BuildZoneMap(gOrd, 0)

	uniform := data.Generate(data.SyntheticSchema("R", nAttrs), rows, cfg.Seed)
	gUni := storage.BuildGroup(uniform, rangeAttrs(0, nAttrs-1))
	zmUni := storage.BuildZoneMap(gUni, 0)

	sels := []float64{0.001, 0.01, 0.1, 0.5}
	if cfg.Quick {
		sels = []float64{0.01, 0.5}
	}
	t := &Table{
		Title:   "ablation-zonemap: block-skipping scans on append-ordered vs shuffled data",
		Columns: []string{"data", "selectivity", "plain_ms", "zonemap_ms", "zones_skipped"},
	}
	run := func(label string, g *storage.ColumnGroup, zm *storage.ZoneMap, cut data.Value, sel float64) {
		preds := []exec.GroupPred{{Off: 0, Op: expr.Lt, Val: cut}}
		buf := make([]int32, 0, rows)
		plain := measure(cfg.Repeats, func() {
			buf = exec.FilterGroup(g, preds, 0, g.Rows, buf[:0])
		})
		var st exec.ZoneScanStats
		zoned := measure(cfg.Repeats, func() {
			st = exec.ZoneScanStats{}
			buf = exec.FilterGroupWithZones(g, zm, preds, buf[:0], &st)
		})
		t.AddRow(label, percentF(sel), ms(plain), ms(zoned),
			fmt.Sprintf("%d/%d", st.Skipped, st.Zones))
	}
	for _, sel := range sels {
		run("time-ordered", gOrd, zmOrd, data.Value(float64(rows)*sel), sel)
	}
	for _, sel := range sels {
		run("shuffled", gUni, zmUni, data.ValueLo+data.Value(2e9*sel), sel)
	}
	t.Notes = append(t.Notes, "zone maps are rebuilt for free during reorganization; they only pay off on position-clustered attributes")
	return t, nil
}
