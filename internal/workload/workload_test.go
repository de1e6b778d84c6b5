package workload

import (
	"testing"

	"ffq/internal/affinity"
	"ffq/internal/allqueues"
	"ffq/internal/core"
	"ffq/internal/spscqueues"
)

func TestRunPairsSmoke(t *testing.T) {
	f, err := allqueues.ByName("ffq-mpmc")
	if err != nil {
		t.Fatal(err)
	}
	res := RunPairs(PairsConfig{
		Factory:    f.Factory,
		Threads:    2,
		TotalPairs: 2000,
		Capacity:   1 << 10,
		DelayMinNS: 0,
		DelayMaxNS: 0,
	})
	if res.Ops != 4000 {
		t.Fatalf("Ops = %d, want 4000", res.Ops)
	}
	if res.MopsPerSec() <= 0 {
		t.Fatalf("throughput %v", res.MopsPerSec())
	}
}

func TestRunPairsEveryQueue(t *testing.T) {
	for _, f := range allqueues.Factories() {
		threads := 2
		if f.MaxThreads == 1 {
			threads = 1
		}
		res := RunPairs(PairsConfig{
			Factory:    f.Factory,
			Threads:    threads,
			TotalPairs: 500,
			Capacity:   1 << 10,
		})
		if res.MopsPerSec() <= 0 {
			t.Errorf("%s: zero throughput", f.Name)
		}
	}
}

func TestRunPairsDefaultsClamp(t *testing.T) {
	f, _ := allqueues.ByName("msqueue")
	res := RunPairs(PairsConfig{Factory: f.Factory, Threads: 0, TotalPairs: 10})
	if res.Ops < 2 {
		t.Fatalf("Ops = %d", res.Ops)
	}
}

func TestVariantString(t *testing.T) {
	if VariantSPMC.String() != "spmc" || VariantMPMC.String() != "mpmc" {
		t.Error("variant names")
	}
	if VariantSharded.String() != "sharded" {
		t.Error("sharded variant name")
	}
}

func TestRunMicroValidation(t *testing.T) {
	if _, err := RunMicro(MicroConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

// TestRunMicroSharded checks where the sharded variant runs: RunMicro
// refuses it, since the sharded queue is shared between producers
// (RunFanIn's shape, not the per-producer queues RunMicro builds), and
// RunFanIn delivers the same shape — 3 producers on exclusive lanes, a
// pooled consumer side — exactly once.
func TestRunMicroSharded(t *testing.T) {
	_, err := RunMicro(MicroConfig{
		Variant:              VariantSharded,
		Layout:               core.LayoutPadded,
		Producers:            3,
		ConsumersPerProducer: 2,
		ItemsPerProducer:     4000,
		QueueSize:            1 << 8,
	})
	if err == nil {
		t.Fatal("RunMicro accepted the sharded variant")
	}
	res, err := RunFanIn(FanInConfig{
		Variant:          VariantSharded,
		Producers:        3,
		Consumers:        2,
		ItemsPerProducer: 4000,
		QueueSize:        1 << 8,
		Layout:           core.LayoutPadded,
		Instrument:       true,
	})
	if err != nil {
		t.Fatalf("RunFanIn(sharded): %v", err)
	}
	if res.Items != 3*4000 {
		t.Fatalf("Items = %d, want %d", res.Items, 3*4000)
	}
	if res.Stats == nil {
		t.Fatal("no stats despite Instrument")
	}
	// Every item crosses the shared queue exactly once.
	if got := res.Stats.Dequeues; got != int64(res.Items) {
		t.Fatalf("%d dequeues recorded, want %d", got, res.Items)
	}
}

func TestRunMicroAllVariants(t *testing.T) {
	for _, v := range []Variant{VariantSPMC, VariantMPMC} {
		res, err := RunMicro(MicroConfig{
			Variant:              v,
			Layout:               core.LayoutPadded,
			Producers:            1,
			ConsumersPerProducer: 2,
			ItemsPerProducer:     3000,
			QueueSize:            256,
			Policy:               affinity.NoAffinity,
		})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Items != 3000 || res.MopsPerSec() <= 0 {
			t.Fatalf("%v: %+v", v, res)
		}
	}
}

func TestRunMicroMultiProducer(t *testing.T) {
	res, err := RunMicro(MicroConfig{
		Variant:              VariantMPMC,
		Producers:            2,
		ConsumersPerProducer: 2,
		ItemsPerProducer:     2000,
		QueueSize:            128,
		Policy:               affinity.SiblingHT, // exercises pinning paths
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Items != 4000 {
		t.Fatalf("Items = %d", res.Items)
	}
}

func TestRunMicroAllLayouts(t *testing.T) {
	for _, l := range core.Layouts {
		res, err := RunMicro(MicroConfig{
			Variant:              VariantSPMC,
			Layout:               l,
			Producers:            1,
			ConsumersPerProducer: 1,
			ItemsPerProducer:     2000,
			QueueSize:            64,
		})
		if err != nil {
			t.Fatalf("%v: %v", l, err)
		}
		if res.Items != 2000 {
			t.Fatalf("%v: %+v", l, res)
		}
	}
}

func TestRunStreamEveryQueue(t *testing.T) {
	for _, f := range spscqueues.Factories() {
		res, err := RunStream(StreamConfig{Factory: f, Items: 50000, Capacity: 256})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if res.Items != 50000 || res.MopsPerSec() <= 0 {
			t.Errorf("%s: %+v", f.Name, res)
		}
	}
}

func TestRunStreamDefaults(t *testing.T) {
	f, err := spscqueues.ByName("ffq-spsc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStream(StreamConfig{Factory: f})
	if err != nil {
		t.Fatal(err)
	}
	if res.Items != 1 {
		t.Fatalf("Items = %d", res.Items)
	}
}

func TestRunPairsLatency(t *testing.T) {
	f, err := allqueues.ByName("ffq-mpmc")
	if err != nil {
		t.Fatal(err)
	}
	res := RunPairs(PairsConfig{
		Factory:        f.Factory,
		Threads:        2,
		TotalPairs:     2000,
		Capacity:       1 << 10,
		MeasureLatency: true,
	})
	if res.EnqueueNS == nil || res.DequeueNS == nil {
		t.Fatal("latency histograms missing")
	}
	if res.EnqueueNS.Count != 2000 || res.DequeueNS.Count != 2000 {
		t.Fatalf("histogram totals: enq=%d deq=%d", res.EnqueueNS.Count, res.DequeueNS.Count)
	}
	if res.EnqueueNS.Mean() <= 0 || res.DequeueNS.P99NS <= 0 {
		t.Fatal("degenerate latency stats")
	}
	// Without the flag the histograms stay nil.
	res2 := RunPairs(PairsConfig{Factory: f.Factory, Threads: 1, TotalPairs: 10})
	if res2.EnqueueNS != nil || res2.DequeueNS != nil {
		t.Fatal("histograms allocated without MeasureLatency")
	}
}

// TestRunMicroInstrumented checks the recorder plumbing of latency
// mode: the result carries an aggregate submission-queue snapshot whose
// op counts match the items moved.
func TestRunMicroInstrumented(t *testing.T) {
	for _, v := range []Variant{VariantSPMC, VariantMPMC} {
		res, err := RunMicro(MicroConfig{
			Variant:              v,
			Producers:            2,
			ConsumersPerProducer: 2,
			ItemsPerProducer:     500,
			QueueSize:            1 << 6,
			MeasureLatency:       true,
		})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Stats == nil {
			t.Fatalf("%v: MeasureLatency set but Stats nil", v)
		}
		if got := res.Stats.Enqueues; got != 1000 {
			t.Errorf("%v: enqueues = %d, want 1000", v, got)
		}
		if got := res.Stats.Dequeues; got != 1000 {
			t.Errorf("%v: dequeues = %d, want 1000", v, got)
		}
	}
}

// TestRunMicroUninstrumented checks the default keeps Stats nil.
func TestRunMicroUninstrumented(t *testing.T) {
	res, err := RunMicro(MicroConfig{
		Variant:              VariantSPMC,
		Producers:            1,
		ConsumersPerProducer: 1,
		ItemsPerProducer:     100,
		QueueSize:            1 << 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Fatalf("uninstrumented run returned stats %+v", res.Stats)
	}
}
