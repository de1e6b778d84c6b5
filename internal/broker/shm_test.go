package broker_test

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ffq/internal/broker"
	"ffq/internal/broker/client"
	"ffq/internal/obs/expvarx"
)

// startDrain starts receiving in the background — the subscriber must
// run concurrently with publishing, since the shm ring, topic lane and
// credit window together buffer less than a full test stream — and
// returns a wait function that checks "m-0".."m-<count-1>" arrived in
// order, exactly once.
func startDrain(t *testing.T, sub *client.Subscription, count int) (wait func()) {
	t.Helper()
	want := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for want < count {
			m, ok := sub.Recv()
			if !ok {
				t.Errorf("stream ended after %d of %d messages", want, count)
				return
			}
			if got, expect := string(m), fmt.Sprintf("m-%d", want); got != expect {
				t.Errorf("message %d: got %q", want, got)
				return
			}
			want++
		}
	}()
	return func() {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out with %d of %d messages", want, count)
		}
	}
}

// TestShmIngress round-trips publishes through a shared-memory segment
// into a subscribed consumer: DialShm → mmap ring → scanner → pump →
// topic → DELIVER, exactly once, in order; the segment file is removed
// once closed and drained.
func TestShmIngress(t *testing.T) {
	dir := t.TempDir()
	b, addr := startBroker(t, broker.Options{
		ShmDir:          dir,
		ShmScanInterval: 2 * time.Millisecond,
	})

	cc, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	sub, err := cc.Subscribe("orders", 256)
	if err != nil {
		t.Fatal(err)
	}

	pub, err := client.DialShm(dir, "orders", 32, 256)
	if err != nil {
		t.Fatal(err)
	}
	const total = 2000
	wait := startDrain(t, sub, total)
	for i := 0; i < total; {
		if i%3 == 0 {
			if err := pub.Publish([]byte(fmt.Sprintf("m-%d", i))); err != nil {
				t.Fatal(err)
			}
			i++
			continue
		}
		batch := make([][]byte, 0, 8)
		for j := 0; j < 8 && i < total; j++ {
			batch = append(batch, []byte(fmt.Sprintf("m-%d", i)))
			i++
		}
		if err := pub.PublishBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	wait()
	if got := b.Metrics().ShmMsgs.Load(); got != total {
		t.Errorf("ShmMsgs = %d, want %d", got, total)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	// The pump notices the close and removes the drained segment.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(pub.Path()); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("closed and drained segment file never removed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShmIngressCloseRace closes each segment immediately after its
// last publish, while the pump is still draining — the window where a
// pump that observes CloseRequested must not drop the final values on
// the floor. Several short segments in sequence widen the window.
func TestShmIngressCloseRace(t *testing.T) {
	dir := t.TempDir()
	b, addr := startBroker(t, broker.Options{
		ShmDir:          dir,
		ShmScanInterval: 2 * time.Millisecond,
	})

	cc, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	sub, err := cc.Subscribe("orders", 256)
	if err != nil {
		t.Fatal(err)
	}

	const segments, perSeg = 8, 250
	wait := startDrain(t, sub, segments*perSeg)
	for s := 0; s < segments; s++ {
		pub, err := client.DialShm(dir, "orders", 32, 256)
		if err != nil {
			t.Fatal(err)
		}
		base := s * perSeg
		for i := 0; i < perSeg; {
			batch := make([][]byte, 0, 16)
			for j := 0; j < 16 && i < perSeg; j++ {
				batch = append(batch, []byte(fmt.Sprintf("m-%d", base+i)))
				i++
			}
			if err := pub.PublishBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		// Close with the stream still in flight; nothing may be lost.
		if err := pub.Close(); err != nil {
			t.Fatal(err)
		}
		// Wait out this segment's removal before starting the next:
		// it proves the pump drained it fully, and it keeps delivery
		// in global order (lanes of different segments don't order
		// against each other).
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := os.Stat(pub.Path()); os.IsNotExist(err) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("segment %d never drained and removed after close", s)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wait()
	if got := b.Metrics().ShmMsgs.Load(); got != segments*perSeg {
		t.Errorf("ShmMsgs = %d, want %d", got, segments*perSeg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShmIngressHelper is the child process of TestShmIngressTwoProcess:
// it publishes 1500 messages through client.DialShm and exits.
func TestShmIngressHelper(t *testing.T) {
	if os.Getenv("FFQ_BROKER_SHM_HELPER") == "" {
		t.Skip("helper process entry point")
	}
	pub, err := client.DialShm(os.Getenv("FFQ_BROKER_SHM_DIR"), "orders", 32, 256)
	if err != nil {
		t.Fatalf("helper DialShm: %v", err)
	}
	for i := 0; i < 1500; {
		batch := make([][]byte, 0, 16)
		for j := 0; j < 16 && i < 1500; j++ {
			batch = append(batch, []byte(fmt.Sprintf("m-%d", i)))
			i++
		}
		if err := pub.PublishBatch(batch); err != nil {
			t.Fatalf("helper publish: %v", err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("helper close: %v", err)
	}
}

// TestShmIngressTwoProcess is the acceptance round-trip: a separate
// producer process publishes through the mmap segment while this
// process runs the broker and a TCP subscriber — every message
// delivered exactly once, in order, and the segment cleaned up.
func TestShmIngressTwoProcess(t *testing.T) {
	dir := t.TempDir()
	b, addr := startBroker(t, broker.Options{
		ShmDir:          dir,
		ShmScanInterval: 2 * time.Millisecond,
	})

	cc, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	sub, err := cc.Subscribe("orders", 256)
	if err != nil {
		t.Fatal(err)
	}

	wait := startDrain(t, sub, 1500)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=TestShmIngressHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "FFQ_BROKER_SHM_HELPER=1", "FFQ_BROKER_SHM_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper failed: %v\n%s", err, out)
	}
	wait()

	// Closed + drained ⇒ the pump deletes the segment file.
	deadline := time.Now().Add(10 * time.Second)
	for {
		left, err := filepath.Glob(filepath.Join(dir, "*.ffq"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("segment files never removed: %v", left)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShmIngressQuarantine drops a garbage .ffq file into the scan dir
// and checks the broker refuses it (fail-closed), counts the error,
// and keeps serving good segments from the same directory.
func TestShmIngressQuarantine(t *testing.T) {
	dir := t.TempDir()
	junk := make([]byte, 8192)
	for i := range junk {
		junk[i] = byte(i * 7)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.ffq"), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	b, addr := startBroker(t, broker.Options{
		ShmDir:          dir,
		ShmScanInterval: 2 * time.Millisecond,
	})

	cc, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	sub, err := cc.Subscribe("orders", 64)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := client.DialShm(dir, "orders", 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	wait := startDrain(t, sub, 100)
	for i := 0; i < 100; i++ {
		if err := pub.Publish([]byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wait()
	pub.Close()
	if got := b.Metrics().ShmAttachErrors.Load(); got == 0 {
		t.Error("garbage segment attached without an attach error")
	}
	if _, err := os.Stat(filepath.Join(dir, "junk.ffq")); err != nil {
		t.Errorf("quarantined file should be left in place: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestCollectorMetricPrefix scrapes a broker with every optional
// collector family switched on (durable topics and shm ingress) and
// checks the broker's own samples share one prefix: each one either
// starts with ffqd_ or carries the queue label of a registered queue
// family, which keeps ffq_.
func TestCollectorMetricPrefix(t *testing.T) {
	shmDir := t.TempDir()
	b, addr := startBroker(t, broker.Options{
		Instrument:      true,
		MetricsPrefix:   "ffqd_prefix",
		DataDir:         t.TempDir(),
		ShmDir:          shmDir,
		ShmScanInterval: 2 * time.Millisecond,
	})

	cc, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	sub, err := cc.Subscribe("sensors", 64)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := client.DialShm(shmDir, "sensors", 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	const total = 50
	wait := startDrain(t, sub, total)
	for i := 0; i < total; i++ {
		if err := pub.Publish([]byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wait()

	// The segment stays open, so the scrape sees it served. The pump
	// counts a batch just after handing it to the topic; poll briefly.
	wants := []string{
		"ffqd_shm_segments", "ffqd_shm_messages_total", "ffqd_shm_bytes_total",
		"ffqd_shm_attach_errors_total", "ffqd_shm_depth", "ffqd_wal_bytes",
		"ffqd_topic_depth",
	}
	var ss *expvarx.SampleSet
	var samples []expvarx.Sample
	deadline := time.Now().Add(5 * time.Second)
	for {
		samples, err = expvarx.Parse(strings.NewReader(expvarx.Exposition()))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		ss = expvarx.NewSampleSet(samples)
		if v, _ := ss.Value("ffqd_shm_messages_total", nil); v == total || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	present := map[string]bool{}
	for _, s := range samples {
		present[s.Name] = true
		if _, queueFamily := s.Labels["queue"]; !queueFamily && !strings.HasPrefix(s.Name, "ffqd_") {
			t.Errorf("collector sample %s %v lacks the ffqd_ prefix", s.Name, s.Labels)
		}
	}
	for _, want := range wants {
		if !present[want] {
			t.Errorf("exposition has no %s sample", want)
		}
	}
	if v, _ := ss.Value("ffqd_shm_messages_total", nil); v != total {
		t.Errorf("ffqd_shm_messages_total = %v, want %d", v, total)
	}

	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
