package experiments

import (
	"strings"
	"testing"

	"ffq/internal/affinity"
)

// micro returns per-test options small enough for CI.
func micro() Options {
	return Options{
		Runs:       1,
		Scale:      0.002,
		MaxThreads: 2,
		MinSizeExp: 6,
		MaxSizeExp: 8,
		Topology:   affinity.Synthetic(4, 2),
	}
}

func TestFig2Shape(t *testing.T) {
	tbl, err := Fig2(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 configurations", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != 5 {
			t.Fatalf("row %v has %d cells", row, len(row))
		}
		if row[1] != "1.0000" { // normalized baseline
			t.Fatalf("baseline cell = %q", row[1])
		}
	}
}

func TestFig3Shape(t *testing.T) {
	tbl, err := Fig3(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 { // 2^6..2^8
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Columns[0] != "entries" {
		t.Fatalf("columns = %v", tbl.Columns)
	}
}

func TestFig4Fig5Shape(t *testing.T) {
	o := micro()
	t4, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 3 * len(affinity.Policies)
	if len(t4.Rows) != wantRows || len(t5.Rows) != wantRows {
		t.Fatalf("rows = %d/%d, want %d", len(t4.Rows), len(t5.Rows), wantRows)
	}
	if !strings.Contains(t4.Note, "substitution") || !strings.Contains(t5.Note, "substitution") {
		t.Error("simulated figures must disclose the substitution")
	}
}

func TestFig6Shape(t *testing.T) {
	tbl, err := Fig6(micro(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Columns) != 5 {
		t.Fatalf("columns = %v", tbl.Columns)
	}
}

func TestFig7Shapes(t *testing.T) {
	o := micro()
	thr, err := Fig7Throughput(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(thr.Rows) != o.MaxThreads {
		t.Fatalf("throughput rows = %d", len(thr.Rows))
	}
	lat, err := Fig7Latency(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Rows) != 3 {
		t.Fatalf("latency rows = %d", len(lat.Rows))
	}
}

func TestFig8Shape(t *testing.T) {
	tbl, err := Fig8(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 8 {
		t.Fatalf("rows = %d, want one per registry queue", len(tbl.Rows))
	}
	// Single-thread-only variants must be dashed out beyond t=1.
	foundDash := false
	for _, row := range tbl.Rows {
		if row[0] == "ffq-spsc" && len(row) > 2 && row[2] == "-" {
			foundDash = true
		}
	}
	if !foundDash {
		t.Error("spsc mark not restricted to one thread")
	}
}

// TestAllRuns runs every entry of Figures: ten tables under unique
// names, each with a title and rows.
func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	figs := Figures(micro(), 1)
	if len(figs) != 10 { // figures 2-8, latency panels of 7 and 8, SPSC lineage
		t.Fatalf("figures = %d, want 10", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.Name] {
			t.Errorf("duplicate figure name %q", f.Name)
		}
		seen[f.Name] = true
		tbl, err := f.Run()
		if err != nil {
			t.Fatalf("figure %s: %v", f.Name, err)
		}
		if tbl.Title == "" || len(tbl.Rows) == 0 {
			t.Errorf("figure %s: empty table %q", f.Name, tbl.Title)
		}
	}
}

func TestDefaultAndQuickOptions(t *testing.T) {
	d := DefaultOptions()
	if d.Runs != 10 || d.Scale != 1.0 {
		t.Errorf("default options %+v", d)
	}
	q := QuickOptions()
	if q.Scale >= d.Scale {
		t.Errorf("quick options not smaller: %+v", q)
	}
	var o Options
	o.fill()
	if o.Runs < 1 || o.MaxThreads < 1 || o.Topology == nil {
		t.Errorf("fill left zeroes: %+v", o)
	}
}

func TestPairsLatencyShape(t *testing.T) {
	tbl, err := PairsLatency(micro(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Columns) != 5 {
		t.Fatalf("columns = %v", tbl.Columns)
	}
}
