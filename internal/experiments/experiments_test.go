package experiments

import (
	"strings"
	"testing"

	"ffq/internal/affinity"
	"ffq/internal/workload"
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

func TestStatsSweep(t *testing.T) {
	o := QuickOptions()
	o.Runs = 1
	o.MinSizeExp = 6
	o.MaxSizeExp = 7
	recs, err := StatsSweep(o, workload.VariantSPMC, 1, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if len(r.Queues) != 1 || r.Queues[0].Name != "submission" {
			t.Fatalf("record %q has no submission queue stats: %+v", r.Name, r.Queues)
		}
		if r.Queues[0].Enqueues == 0 || r.Queues[0].Dequeues == 0 {
			t.Fatalf("record %q has zero op counters: %+v", r.Name, r.Queues[0].Stats)
		}
		if r.Metrics["mops_per_sec_mean"] <= 0 {
			t.Fatalf("record %q has no throughput metric", r.Name)
		}
	}
}

// TestStatsSweepLatency: latency mode adds the sojourn and per-op
// percentile metrics to every record, and a plain sweep carries none
// of them.
func TestStatsSweepLatency(t *testing.T) {
	o := QuickOptions()
	o.Runs = 1
	o.MinSizeExp = 6
	o.MaxSizeExp = 6
	recs, err := StatsSweep(o, workload.VariantSPMC, 1, 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	for _, key := range []string{
		"sojourn_p50_ns", "sojourn_p999_ns", "sojourn_max_ns", "sojourn_count",
		"enq_p99_ns", "deq_p99_ns", "enq_mean_ns", "deq_mean_ns",
	} {
		if r.Metrics[key] <= 0 {
			t.Errorf("latency metric %q missing or zero: %v", key, r.Metrics)
		}
	}
	if r.Metrics["sojourn_p50_ns"] > r.Metrics["sojourn_p999_ns"] {
		t.Errorf("inverted sojourn percentiles: %v", r.Metrics)
	}
	if r.Params["measure_latency"] != true {
		t.Errorf("measure_latency param missing: %v", r.Params)
	}

	plain, err := StatsSweep(o, workload.VariantSPMC, 1, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain[0].Metrics["sojourn_p50_ns"]; ok {
		t.Error("plain sweep leaked latency metrics")
	}
}

// TestStatsSweepBatch: the sharded variant sweeps with a batch size
// and the records carry the batch histogram of its native batch
// operations.
func TestStatsSweepBatch(t *testing.T) {
	o := QuickOptions()
	o.Runs = 1
	o.MinSizeExp = 6
	o.MaxSizeExp = 6
	recs, err := StatsSweep(o, workload.VariantSharded, 1, 2, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Params["batch"] != 8 {
		t.Fatalf("batch param missing: %+v", r.Params)
	}
	if !strings.Contains(r.Name, "/batch=8") {
		t.Fatalf("record name %q lacks batch suffix", r.Name)
	}
	qs := r.Queues[0]
	if qs.BatchCount == 0 || qs.BatchSumItems == 0 {
		t.Fatalf("batch counters missing: %+v", qs.Stats)
	}
}

// TestStatsSweepSharded: the sharded variant sweeps the producer-count
// axis on one shared queue and the records carry the lane layout.
func TestStatsSweepSharded(t *testing.T) {
	o := QuickOptions()
	o.Runs = 1
	o.MinSizeExp = 6
	o.MaxSizeExp = 6
	recs, err := StatsSweep(o, workload.VariantSharded, 3, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if !strings.Contains(r.Name, "/p=3") {
		t.Fatalf("record name %q lacks producer suffix", r.Name)
	}
	if r.Params["producers"] != 3 || r.Params["lanes"] != 4 || r.Params["lane_depth"] != 64 {
		t.Fatalf("lane params missing: %+v", r.Params)
	}
	if r.Metrics["mops_per_sec_mean"] <= 0 {
		t.Fatalf("record %q has no throughput metric", r.Name)
	}
	if r.Queues[0].Dequeues == 0 {
		t.Fatalf("record %q has zero dequeues: %+v", r.Name, r.Queues[0].Stats)
	}
}

// TestShardedVsMPMC: the fan-in comparison emits one record per
// variant and the sharded record carries the speedup ratio.
func TestShardedVsMPMC(t *testing.T) {
	o := QuickOptions()
	o.Runs = 1
	recs, err := ShardedVsMPMC(o, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if !strings.Contains(recs[0].Name, "fanin/mpmc") || !strings.Contains(recs[1].Name, "fanin/sharded") {
		t.Fatalf("unexpected record names %q, %q", recs[0].Name, recs[1].Name)
	}
	for _, r := range recs {
		if r.Metrics["mops_per_sec_mean"] <= 0 {
			t.Fatalf("record %q has no throughput metric", r.Name)
		}
		if r.Queues[0].Dequeues == 0 {
			t.Fatalf("record %q has zero dequeues: %+v", r.Name, r.Queues[0].Stats)
		}
	}
	sharded := recs[1]
	if sharded.Metrics["speedup_vs_mpmc"] <= 0 {
		t.Fatalf("sharded record lacks speedup metric: %+v", sharded.Metrics)
	}
	if sharded.Params["lanes"] != 3 || sharded.Params["lane_depth"] != 1<<12 {
		t.Fatalf("sharded record lacks lane params: %+v", sharded.Params)
	}
}
