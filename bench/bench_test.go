package main

import (
	"context"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"h2o"
)

const smokeScale = 0.01

func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 2014, seconds: 0.3, scale: smokeScale, workdir: t.TempDir(), setups: 1}
}

// inputDigest hashes everything a workload hands the program under test:
// its tables and the first ops of each client's stream.
func inputDigest(w *workloadSpec, seed int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	var main *h2o.Table
	for i, name := range w.tables {
		tb := genTable(name, seed, smokeScale)
		if i == 0 {
			main = tb
		}
		for _, col := range tb.Cols {
			for _, v := range col {
				for b := 0; b < 8; b++ {
					buf[b] = byte(v >> (8 * b))
				}
				h.Write(buf[:])
			}
		}
	}
	c := newStreamCtx(w, seed, smokeScale, main.Rows)
	for client := 0; client < w.clients; client++ {
		s := newOpStream(c, client)
		for i := 0; i < 500; i++ {
			h.Write([]byte(s.next().sql))
		}
	}
	return h.Sum64()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputDigest(w, 2014), inputDigest(w, 2014), inputDigest(w, 7)
		if a != b {
			t.Errorf("%s: seed 2014 generated different inputs twice", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 2014 and 7 generated the same inputs", w.name)
		}
	}
}

func TestMixShares(t *testing.T) {
	const n = 40000
	for _, w := range workloads {
		rows := scaled(eventsRows, smokeScale)
		c := newStreamCtx(w, 2014, smokeScale, rows)
		s := newOpStream(c, 0)
		var got [numOpKinds]int
		for i := 0; i < n; i++ {
			got[s.next().kind]++
		}
		total := 0.0
		for _, sh := range w.mix {
			total += sh.pct
		}
		if math.Abs(total-100) > 1e-9 {
			t.Errorf("%s: mix adds up to %g%%", w.name, total)
		}
		for _, sh := range w.mix {
			if pct := 100 * float64(got[sh.kind]) / n; math.Abs(pct-sh.pct) > 1 {
				t.Errorf("%s: %s is %.2f%% of the stream, spec says %g%%", w.name, opKindNames[sh.kind], pct, sh.pct)
			}
		}
	}
}

func names(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: %d names reported, BENCHMARK.json lists %d\n got %v\nwant %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: reported %q where BENCHMARK.json lists %q", what, got[i], want[i])
		}
	}
}

// TestSmokeMatchesBenchmarkJSON runs every workload, timed and traced, at
// 1% scale and checks that what they report is exactly what BENCHMARK.json
// names — units included — so the two cannot drift apart.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var wantWorkloads, wantE2E, wantLayer []string
	units := map[string]string{}
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		wantLayer = append(wantLayer, m.Name)
		units[m.Name] = m.Unit
	}
	var gotWorkloads []string
	for _, w := range workloads {
		gotWorkloads = append(gotWorkloads, w.name)
	}
	sort.Strings(gotWorkloads)
	sameNames(t, "workloads", gotWorkloads, wantWorkloads)

	ctx := context.Background()
	cfg := smokeConfig(t)
	for _, w := range workloads {
		timed, err := timedRun(ctx, w, cfg)
		if err != nil {
			t.Fatalf("%s timed: %v", w.name, err)
		}
		tracedRep, err := tracedRun(ctx, w, cfg, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		sameNames(t, w.name+" end-to-end", names(timed.Metrics), wantE2E)
		sameNames(t, w.name+" per-layer", names(tracedRep.Metrics), wantLayer)
		for _, rep := range []*report{timed, tracedRep} {
			for n, m := range rep.Metrics {
				if m.Unit != units[n] {
					t.Errorf("%s: %s is reported in %q, BENCHMARK.json says %q", w.name, n, m.Unit, units[n])
				}
			}
			if rep.Failed != 0 {
				t.Errorf("%s: %d of %d ops failed or disagreed with the oracle: %v", w.name, rep.Failed, rep.Attempted, rep.Notes)
			}
		}
		for _, m := range spec.EndToEnd {
			if timed.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", w.name, m.Name, timed.Metrics[m.Name].Value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestOracleAgainstHandComputedAnswers(t *testing.T) {
	tb := &h2o.Table{Schema: h2o.SyntheticSchema("events", 3), Rows: 4,
		Cols: [][]int64{{0, 1, 2, 3}, {1, 0, 1, 0}, {10, 20, 30, 40}}}
	dim := &h2o.Table{Schema: h2o.SyntheticSchema("dim", 2), Rows: 2,
		Cols: [][]int64{{10, 30}, {7, 9}}}
	o := newOracle(map[string]*h2o.Table{"events": tb, "dim": dim})
	g := col{attr: 1}
	cases := []struct {
		st   *stmt
		want []int64
	}{
		{&stmt{table: "events", items: []item{{agg: aggSum, cols: []col{{attr: 2}}}, {agg: aggAvg, cols: []col{{attr: 2}}}},
			where: []pred{{c: col{attr: 0}, ge: true, v: 1}}}, []int64{90, 30}},
		{&stmt{table: "events", group: &g, items: []item{{cols: []col{g}}, {agg: aggCount, cols: []col{{attr: 0}}}, {agg: aggMax, cols: []col{{attr: 2}}}}},
			[]int64{0, 2, 40, 1, 2, 30}},
		{&stmt{table: "events", items: []item{{cols: []col{{attr: 0}}}, {cols: []col{{attr: 2}}}},
			where: []pred{{c: col{attr: 2}, v: 30}}}, []int64{0, 10, 1, 20}},
		{&stmt{table: "events", join: "dim", leftKey: 2, rightKey: 0,
			items: []item{{agg: aggCount, cols: []col{{attr: 0}}}, {agg: aggSum, cols: []col{{right: true, attr: 1}}}}},
			[]int64{2, 16}},
		{&stmt{table: "events", items: []item{{agg: aggMin, cols: []col{{attr: 2}}}},
			where: []pred{{c: col{attr: 0}, ge: true, v: 99}}}, []int64{0}},
	}
	for _, c := range cases {
		got := o.eval(c.st)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.st.SQL(), got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: got %v, want %v", c.st.SQL(), got, c.want)
				break
			}
		}
	}
}
