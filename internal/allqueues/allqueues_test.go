package allqueues_test

import (
	"testing"

	"ffq/internal/allqueues"
	"ffq/internal/queuetest"
)

// blocking names the registry entries whose Dequeue blocks on empty
// instead of reporting it (the FFQ family: a reserved rank cannot be
// abandoned).
func blocking(name string) bool {
	switch name {
	case "ffq-mpmc", "ffq-spmc":
		return true
	}
	return false
}

// batcher names the registry entries whose adapters expose the batch
// interface (contiguous-run claims on the FFQ cores; per-lane runs on
// the sharded queue).
func batcher(name string) bool {
	switch name {
	case "ffq-mpmc", "ffq-spmc", "ffq-sharded", "ffq-line":
		return true
	}
	return false
}

// tryDequeuer names the registry entries whose adapters expose the
// non-blocking TryDequeue poll (the FFQ family).
func tryDequeuer(name string) bool {
	switch name {
	case "ffq-mpmc", "ffq-spmc", "ffq-spsc", "ffq-sharded", "ffq-line":
		return true
	}
	return false
}

// singleConsumer names the strictly one-producer/one-consumer entries:
// the conformance runs must not fan their dequeues out.
func singleConsumer(name string) bool {
	return name == "ffq-spsc" || name == "ffq-line"
}

// Every registry entry must pass the conformance suite through the
// exact adapter the benchmarks use. Entries with Bounded false
// additionally must absorb a burst far beyond the capacity hint with
// no consumer running.
func TestRegistryConformance(t *testing.T) {
	for _, f := range allqueues.Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			opts := queuetest.DefaultOptions()
			opts.Capacity = 1024
			opts.ItemsPerProducer = 2000
			opts.Blocking = blocking(f.Name)
			if f.MaxThreads == 1 {
				opts.Producers = 1
				if singleConsumer(f.Name) {
					opts.Consumers = 1
				}
			}
			queuetest.Sequential(t, f.Factory, opts)
			queuetest.Concurrent(t, f.Factory, opts)
			if tryDequeuer(f.Name) {
				queuetest.TryDequeue(t, f.Factory, opts)
			}
			if batcher(f.Name) {
				queuetest.BatchFIFO(t, f.Factory, opts)
				queuetest.BatchPartial(t, f.Factory, opts)
				queuetest.BatchExactlyOnce(t, f.Factory, opts)
			}
			if !f.Bounded {
				growth := opts
				growth.Capacity = 16
				queuetest.UnboundedGrowth(t, f.Factory, growth)
			}
		})
	}
}

func TestByName(t *testing.T) {
	f, err := allqueues.ByName("ffq-mpmc")
	if err != nil || f.Name != "ffq-mpmc" {
		t.Fatalf("ByName: %v, %+v", err, f)
	}
	if _, err := allqueues.ByName("nonesuch"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestFactoryMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range allqueues.Factories() {
		if f.Name == "" || f.Brief == "" || f.New == nil {
			t.Errorf("incomplete factory %+v", f)
		}
		if seen[f.Name] {
			t.Errorf("duplicate factory name %q", f.Name)
		}
		seen[f.Name] = true
	}
	for _, want := range []string{"ffq-mpmc", "ffq-spmc", "ffq-spsc", "ffq-line", "ffq-sharded", "wfqueue", "lcrq", "ccqueue", "msqueue", "htm", "vyukov", "chan"} {
		if !seen[want] {
			t.Errorf("registry is missing %q", want)
		}
	}
}

// Every registry queue's concurrent histories must be linearizable
// with respect to a sequential FIFO queue.
func TestRegistryLinearizable(t *testing.T) {
	for _, f := range allqueues.Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			if f.Name == "ffq-sharded" {
				// By construction the sharded queue orders items per
				// producer lane only: an item enqueued strictly after
				// another producer's item may still be dequeued first,
				// so its histories do not linearize to one sequential
				// FIFO. Its ordering contract (exactly-once delivery,
				// per-producer FIFO) is covered by the conformance and
				// batch suites instead.
				t.Skip("sharded queue guarantees per-producer FIFO, not single-FIFO linearizability")
			}
			opts := queuetest.DefaultOptions()
			opts.Blocking = blocking(f.Name)
			if f.MaxThreads == 1 {
				opts.Producers = 1
				if singleConsumer(f.Name) {
					opts.Consumers = 1
				}
			}
			queuetest.Linearizable(t, f.Factory, opts, 25)
		})
	}
}
