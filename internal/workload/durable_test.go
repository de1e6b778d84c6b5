package workload

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ffq/internal/wal"
)

// durableRun drives the standard broker workload once with a WAL
// attached (or not, when dir is empty) and returns its msgs/s.
func durableRun(t testing.TB, dir string, pol wal.SyncPolicy, msgs int) float64 {
	res, err := RunBroker(BrokerConfig{
		Transport:           "pipe",
		Producers:           1,
		Consumers:           2,
		MessagesPerProducer: msgs,
		MaxBatch:            64,
		DataDir:             dir,
		Fsync:               pol,
	})
	if err != nil {
		t.Fatalf("RunBroker(durable=%v): %v", dir != "", err)
	}
	return res.MsgsPerSec()
}

// TestDurablePublishGate is the durable-overhead gate from the issue:
// with fsync off and client batching at 64, the WAL append is one
// buffered write per PRODUCE frame, amortized over the batch — so
// durable throughput must stay within 1.3x of the in-memory path per
// element (durable >= 1/1.3 ~ 0.77x memory). A regression here means
// the append path grew per-message work (allocation, extra syscalls,
// lock traffic) rather than per-batch work.
//
// Each side keeps its best of several runs, and the two sides
// alternate which goes first, so a burst of load from other tests or a
// scheduler hiccup lands on both instead of deciding the ratio.
func TestDurablePublishGate(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput gate; skipped in -short")
	}
	const (
		msgs   = 30_000
		rounds = 40
	)
	// Each durable run gets a fresh log, removed right after it:
	// reopening an earlier run's log would time its recovery scan, and
	// keeping them would leave the kernel writing earlier runs back to
	// disk during later ones.
	root := t.TempDir()
	durableOnce := func(i int) float64 {
		dir := filepath.Join(root, strconv.Itoa(i))
		defer os.RemoveAll(dir)
		return durableRun(t, dir, wal.SyncOff, msgs)
	}
	var memory, durable float64
	for i := 0; i < rounds; i++ {
		if i%2 == 0 {
			memory = max(memory, durableRun(t, "", wal.SyncOff, msgs))
			durable = max(durable, durableOnce(i))
		} else {
			durable = max(durable, durableOnce(i))
			memory = max(memory, durableRun(t, "", wal.SyncOff, msgs))
		}
	}
	ratio := durable / memory
	t.Logf("best of %d alternating runs: memory %.0f msgs/s, durable(fsync=off) %.0f msgs/s (%.2fx)", rounds, memory, durable, ratio)
	if ratio < 1/1.3 {
		t.Fatalf("durable publish %.2fx of in-memory, want >= %.2fx (durable %.0f vs memory %.0f msgs/s)",
			ratio, 1/1.3, durable, memory)
	}
}

// BenchmarkDurablePublish reports end-to-end broker throughput per
// fsync policy next to the in-memory baseline. Run with -benchtime on
// the wall-clock-heavy policies; each iteration moves msgs messages
// through the full wire path. Each durable iteration gets a fresh log
// directory, made and removed with the timer stopped, so the timed
// loop measures appends and not the recovery scan of earlier
// iterations' logs.
func BenchmarkDurablePublish(b *testing.B) {
	const msgs = 20000
	bench := func(b *testing.B, durable bool, pol wal.SyncPolicy) {
		b.ReportAllocs()
		var root string
		if durable {
			root = b.TempDir()
		}
		for i := 0; i < b.N; i++ {
			dir := ""
			if durable {
				b.StopTimer()
				dir = filepath.Join(root, strconv.Itoa(i))
				if err := os.Mkdir(dir, 0o755); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(durableRun(b, dir, pol, msgs), "msgs/s")
			if durable {
				b.StopTimer()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	}
	b.Run("memory", func(b *testing.B) { bench(b, false, wal.SyncOff) })
	b.Run("durable-fsync-off", func(b *testing.B) { bench(b, true, wal.SyncOff) })
	b.Run("durable-fsync-interval", func(b *testing.B) { bench(b, true, wal.SyncInterval) })
	b.Run("durable-fsync-always", func(b *testing.B) { bench(b, true, wal.SyncAlways) })
}
