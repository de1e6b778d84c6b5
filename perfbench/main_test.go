package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark: with
// PERFBENCH_MAIN=1 in its environment it runs the command and exits
// with the command's code, so tests can check real exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_MAIN") == "1" {
		os.Exit(mainExit())
	}
	os.Exit(m.Run())
}

// runSelf runs the benchmark command with args and returns its final
// result line and exit code.
func runSelf(t *testing.T, args ...string) (result, int) {
	t.Helper()
	args = append([]string{"--work-dir", t.TempDir(), "--seconds", "1"}, args...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PERFBENCH_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("run %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("run %v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return res, code
}

// benchmarkDefs reads the metric definitions BENCHMARK.json declares.
func benchmarkDefs(t *testing.T) (workloads []string, e2e, layer []metricDef) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	return workloads, e2e, layer
}

func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	names, e2e, layer := benchmarkDefs(t)
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(a, b []metricDef) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(e2e, endToEnd) {
		t.Errorf("end-to-end metrics differ:\nBENCHMARK.json %v\nprogram        %v", e2e, endToEnd)
	}
	if !same(layer, perLayer) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", layer, perLayer)
	}
}

// TestTinyRunsPrintEveryMetric runs every workload for one second,
// untraced and traced, and checks that each prints every declared
// metric with its unit and passes its correctness checks.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	names, e2e, layer := benchmarkDefs(t)
	for _, w := range names {
		for trace, defs := range [][]metricDef{e2e, layer} {
			res, code := runSelf(t, "--workload", w, "--seed", "7", "--trace", []string{"0", "1"}[trace])
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, correct=%v, failed %d of %d", w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %q", w, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestDroppedDeliverFails drops one DELIVER frame on the broker side of
// the consumer's connection: the checks must count the lost messages
// and the command must exit non-zero.
func TestDroppedDeliverFails(t *testing.T) {
	res, code := runSelf(t, "--workload", "pubsub-burst", "--seed", "3", "--trace", "0", "--fault", "drop-deliver")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("dropped DELIVER went unnoticed: exit %d, correct=%v, failed %d of %d", code, res.Correct, res.Failed, res.Attempted)
	}
}

func TestCheckerClassifiesFailures(t *testing.T) {
	msg := func(seq uint64) []byte {
		b := make([]byte, payloadSize)
		fillPayload(b, 9, seq)
		return b
	}
	c := &checker{seed: 9}
	for _, seq := range []uint64{0, 1, 3, 3, 2} { // 2 lost, then 3 again, then 2 late
		c.check(msg(seq))
	}
	bad := msg(4)
	bad[20] ^= 1
	c.check(bad)
	c.finish(7) // 5 and 6 never arrived
	if c.lost != 3 || c.dup != 2 || c.corrupt != 1 {
		t.Fatalf("lost %d dup %d corrupt %d, want 3 2 1", c.lost, c.dup, c.corrupt)
	}
}
