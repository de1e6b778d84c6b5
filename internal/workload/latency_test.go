package workload

import (
	"testing"
	"time"
)

// TestRunMicroLatencyMode checks the latency-mode plumbing: the sojourn
// histogram covers every item, the recorder carries per-op percentile
// snapshots, and a plain run allocates none of it.
func TestRunMicroLatencyMode(t *testing.T) {
	res, err := RunMicro(MicroConfig{
		Variant:              VariantSPMC,
		Producers:            2,
		ConsumersPerProducer: 2,
		ItemsPerProducer:     2000,
		QueueSize:            1 << 8,
		MeasureLatency:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sojourn == nil {
		t.Fatal("MeasureLatency set but Sojourn nil")
	}
	if res.Sojourn.Count != int64(res.Items) {
		t.Fatalf("sojourn count = %d, want %d", res.Sojourn.Count, res.Items)
	}
	if res.Sojourn.P50NS <= 0 || res.Sojourn.P999NS < res.Sojourn.P50NS || res.Sojourn.MaxNS < res.Sojourn.P999NS {
		t.Fatalf("degenerate sojourn percentiles: %v", res.Sojourn)
	}
	if res.Stats == nil || res.Stats.EnqLatency == nil || res.Stats.DeqLatency == nil {
		t.Fatalf("per-op latency snapshots missing: %+v", res.Stats)
	}
	if res.Stats.EnqLatency.Count != int64(res.Items) {
		t.Fatalf("enq latency count = %d, want %d", res.Stats.EnqLatency.Count, res.Items)
	}

	plain, err := RunMicro(MicroConfig{
		Variant:              VariantSPMC,
		Producers:            1,
		ConsumersPerProducer: 1,
		ItemsPerProducer:     100,
		QueueSize:            1 << 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sojourn != nil || plain.Stats != nil {
		t.Fatal("plain run allocated latency state")
	}
}

// tailGate is the p999 sojourn bound the stalled run must trip. The
// injected disturbance stops the only consumer for ~500us several
// times, so roughly a flow-control window of items per stall waits the
// full stall — orders of magnitude above the gate.
const tailGate = 100 * time.Microsecond

// TestTailLatencyGate is the demonstration the ROADMAP's tail-latency
// item asks for: a deliberately stalled consumer is invisible to the
// mean-throughput gate but trips the p999 sojourn gate. Each side
// takes the best of three alternating runs so scheduler noise on a
// loaded machine cannot fake a stall.
func TestTailLatencyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("latency gate needs full-size runs")
	}
	base := MicroConfig{
		Variant:              VariantSPMC,
		Producers:            1,
		ConsumersPerProducer: 1,
		ItemsPerProducer:     400_000,
		QueueSize:            1 << 10,
		// A small response queue bounds the flow-control window to 32
		// outstanding items: the baseline sojourn is then queueing
		// delay over a short queue (a few us), keeping its p999 well
		// under the gate so the stall contrast is clean.
		RespQueueSize:  64,
		MeasureLatency: true,
	}
	stalled := base
	// 20 stalls x ~a window of delayed items each = ~0.16% of items
	// held for the full stall — above the 0.1% tail the p999 reads,
	// below anything a mean gate can see.
	stalled.StallEvery = 20_000
	stalled.StallDuration = 500 * time.Microsecond
	stalled.StallThreshold = tailGate

	// Throughput is taken net of the injected stalls as measured: with
	// real parallelism the baseline run is short enough that 20 of them
	// would be a mean effect of the test's own making, not of the
	// stalled consumer.
	netMops := func(r MicroResult) float64 {
		return float64(r.Items) / (r.Elapsed - r.Stalled).Seconds() / 1e6
	}
	keepBest := func(best *MicroResult, cfg MicroConfig) {
		res, err := RunMicro(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if best.Elapsed == 0 || netMops(res) > netMops(*best) {
			*best = res
		}
	}
	// The two sides alternate, so a burst of load from other test
	// packages lands on both rather than on one.
	var b, s MicroResult
	for i := 0; i < 3; i++ {
		keepBest(&b, base)
		keepBest(&s, stalled)
	}

	if s.Sojourn.P999NS < tailGate.Nanoseconds() {
		t.Errorf("stalled run p999 = %v, gate %v not tripped (sojourn %v)",
			time.Duration(s.Sojourn.P999NS), tailGate, s.Sojourn)
	}
	if b.Sojourn.P999NS >= tailGate.Nanoseconds() {
		// A clean baseline sits far below the gate; a loaded CI machine
		// can push it over, which voids the contrast but not the gate.
		t.Logf("baseline p999 %v already above gate (noisy machine)", time.Duration(b.Sojourn.P999NS))
	} else if s.Sojourn.P999NS < 4*b.Sojourn.P999NS {
		t.Errorf("stalled p999 %v not clearly above baseline p999 %v",
			time.Duration(s.Sojourn.P999NS), time.Duration(b.Sojourn.P999NS))
	}

	// Net of the stalls, the disturbance must be invisible to a
	// mean-throughput gate. Allow slack beyond the nominal 10% for
	// machine noise.
	if ratio := netMops(s) / netMops(b); ratio < 0.75 {
		t.Errorf("stalled net throughput fell to %.0f%% of baseline (stalls %v of %v); stall should be a tail effect, not a mean effect",
			ratio*100, s.Stalled, s.Elapsed)
	} else {
		t.Logf("net throughput ratio %.2f (stalls %v of %v), baseline p999 %v, stalled p999 %v",
			ratio, s.Stalled, s.Elapsed, time.Duration(b.Sojourn.P999NS), time.Duration(s.Sojourn.P999NS))
	}
}
