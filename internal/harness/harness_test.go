package harness

import (
	"strings"
	"testing"
	"time"
)

// quick is the tiny configuration the harness tests run under; the point is
// exercising every experiment's full code path, not timing fidelity.
var quick = Config{Quick: true}

// TestEveryExperimentRuns executes all experiments at smoke scale: each must
// produce a non-empty, rectangular table.
func TestEveryExperimentRuns(t *testing.T) {
	for _, r := range Experiments() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			tab, err := r.Run(quick)
			if err != nil {
				t.Fatal(err)
			}
			if tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("experiment %s produced an empty table", r.Name)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(tab.Columns))
				}
			}
		})
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("fig13", quick); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("nope", quick); err == nil {
		t.Fatal("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "fig7") {
		t.Fatalf("error should list known experiments: %v", err)
	}
}

func TestExperimentCatalogue(t *testing.T) {
	var names []string
	for _, r := range Experiments() {
		if r.Name == "" || r.Description == "" || r.Run == nil {
			t.Fatalf("malformed runner %+v", r)
		}
		names = append(names, r.Name)
	}
	// The catalogue is exactly the paper's evaluation (every table and
	// figure of §4) plus its three ablations, in presentation order.
	want := []string{
		"fig1", "fig2a", "fig2b", "fig2c", "fig7", "table1", "fig8", "fig9",
		"fig10a", "fig10b", "fig10c", "fig10d", "fig10e", "fig10f",
		"fig11", "fig12", "fig13", "fig14",
		"ablation-window", "ablation-groups", "ablation-oscillate",
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("catalogue = %v, want %v", names, want)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"x", "long_column"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")

	var text strings.Builder
	tab.Fprint(&text)
	out := text.String()
	for _, want := range []string{"== demo ==", "long_column", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fprint output missing %q:\n%s", want, out)
		}
	}

	var csv strings.Builder
	tab.CSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || lines[0] != "x,long_column" || lines[2] != "333,4" {
		t.Fatalf("CSV output wrong:\n%s", csv.String())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Rows150 != 100_000 || c.Rows250 != 50_000 || c.Repeats != 3 || c.Seed == 0 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	q := Config{Quick: true, Rows150: 1_000_000}.withDefaults()
	if q.Rows150 > 8_000 {
		t.Fatalf("quick mode must clamp scale, got %d", q.Rows150)
	}
}

func TestMeasureTakesMinimum(t *testing.T) {
	calls := 0
	d := measure(3, func() {
		calls++
		if calls == 1 {
			time.Sleep(2 * time.Millisecond)
		}
	})
	if calls != 3 {
		t.Fatalf("measure ran f %d times", calls)
	}
	if d >= 2*time.Millisecond {
		t.Fatalf("measure should report the minimum, got %v", d)
	}
}

func TestFormattingHelpers(t *testing.T) {
	if ms(1500*time.Microsecond) != "1.500" {
		t.Fatalf("ms = %s", ms(1500*time.Microsecond))
	}
	if ratio(2*time.Second, time.Second) != "2.00x" {
		t.Fatal("ratio wrong")
	}
	if ratio(time.Second, 0) != "inf" {
		t.Fatal("ratio by zero")
	}
	if itoa(0) != "0" || itoa(405) != "405" {
		t.Fatal("itoa wrong")
	}
	if fmtPct(50, 250) != "20%" {
		t.Fatal("fmtPct wrong")
	}
	if atoiSafe("25x") != 25 {
		t.Fatal("atoiSafe wrong")
	}
}

func TestSplitAttrsAndCover(t *testing.T) {
	attrs := rangeAttrs(0, 24)
	parts := splitAttrs(attrs, 4)
	if len(parts) != 4 {
		t.Fatalf("splitAttrs produced %d parts", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 25 {
		t.Fatalf("split lost attributes: %d", total)
	}
	covered := coverWith(parts, 30)
	seen := map[int]bool{}
	for _, p := range covered {
		for _, a := range p {
			seen[a] = true
		}
	}
	for a := 0; a < 30; a++ {
		if !seen[a] {
			t.Fatalf("attribute %d uncovered", a)
		}
	}
}
