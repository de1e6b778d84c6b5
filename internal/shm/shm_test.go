package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestGeometry(t *testing.T) {
	cases := []struct {
		slot, capacity int
		wantVals       int
		wantCellStride uint64
	}{
		{4, 100, 7, 64},    // 8-byte slots: seven beside the seq word, like core
		{8, 100, 3, 64},    // 16-byte slots: three per line
		{52, 100, 1, 64},   // 56-byte slot stride: exactly one per line
		{256, 100, 1, 320}, // big payloads: one slot, stride rounds to 64
	}
	for _, c := range cases {
		g, err := geometryFor(c.slot, c.capacity)
		if err != nil {
			t.Fatalf("slot=%d: %v", c.slot, err)
		}
		if g.ValsPerLine != c.wantVals || g.CellStride != c.wantCellStride {
			t.Errorf("slot=%d: vals=%d stride=%d, want %d/%d",
				c.slot, g.ValsPerLine, g.CellStride, c.wantVals, c.wantCellStride)
		}
		if g.Cap() < c.capacity {
			t.Errorf("slot=%d: Cap=%d below requested %d", c.slot, g.Cap(), c.capacity)
		}
		if g.Lines&(g.Lines-1) != 0 {
			t.Errorf("slot=%d: %d lines not a power of two", c.slot, g.Lines)
		}
	}
	if _, err := geometryFor(0, 1); err == nil {
		t.Error("slot size 0 accepted")
	}
	if _, err := geometryFor(maxSlotSize+1, 1); err == nil {
		t.Error("oversized slot accepted")
	}
	if _, err := geometryFor(1<<20, 1<<30); err == nil {
		t.Error("absurd capacity accepted")
	}
}

// TestShmRoundTripInProcess drives the full protocol with both ends
// mapped in one process: ragged batches, wrap-around, exactly-once in
// order, Close draining the partial line.
func TestShmRoundTripInProcess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.ffq")
	p, err := Create(path, "orders", 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Detach()
	c, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	if c.Topic() != "orders" {
		t.Fatalf("Topic = %q", c.Topic())
	}

	const total = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([][]byte, 0, 9)
		for i := 0; i < total; {
			batch = batch[:0]
			n := i%9 + 1
			for j := 0; j < n && i < total; j++ {
				batch = append(batch, []byte(fmt.Sprintf("m-%d", i)))
				i++
			}
			if len(batch) == 1 {
				if err := p.Enqueue(batch[0]); err != nil {
					t.Error(err)
					return
				}
				continue
			}
			if err := p.EnqueueBatch(batch); err != nil {
				t.Error(err)
				return
			}
		}
		p.Close()
	}()

	buf := make([]byte, c.Geometry().SlotSize)
	want := 0
	for {
		n, err := c.Next(buf)
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, expect := string(buf[:n]), fmt.Sprintf("m-%d", want); got != expect {
			t.Fatalf("message %d: got %q", want, got)
		}
		want++
	}
	if want != total {
		t.Fatalf("drained %d messages, want %d", want, total)
	}
	// Join before the deferred Detach: the mmap atomics that ordered
	// the transfer are invisible to the race detector.
	wg.Wait()
}

func TestShmTooLarge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.ffq")
	p, err := Create(path, "t", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Detach()
	if err := p.Enqueue(make([]byte, 9)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Enqueue oversized = %v", err)
	}
	if err := p.EnqueueBatch([][]byte{{1}, make([]byte, 9)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("EnqueueBatch oversized = %v", err)
	}
	// The failed batch must not have published its valid prefix.
	c, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	if n, ok, _ := c.TryDequeue(make([]byte, 8)); ok {
		t.Fatalf("rejected batch leaked a %d-byte payload", n)
	}
}

func TestShmAttachRefusesLiveConsumer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.ffq")
	p, err := Create(path, "t", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Detach()
	c1, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	// Same PID re-attach is allowed (it is our own registration), so
	// fake a different live consumer: PID 1 always exists.
	c1.seg.word(offConsPID).Store(1)
	if _, err := Attach(path); !errors.Is(err, ErrBusy) {
		t.Fatalf("Attach with live consumer = %v, want ErrBusy", err)
	}
	// A dead consumer's registration is taken over.
	c1.seg.word(offConsPID).Store(1 << 30) // no such process
	c2, err := Attach(path)
	if err != nil {
		t.Fatalf("takeover of dead consumer: %v", err)
	}
	c2.Detach()
	c1.seg.detach()
}

// TestShmConsumerCrashResume kills the consumer state mid-stream (by
// dropping the Consumer and re-attaching) and checks the successor
// resumes without losing unconsumed values.
func TestShmConsumerCrashResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.ffq")
	p, err := Create(path, "t", 8, 14)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Detach()
	for i := 0; i < 10; i++ {
		if err := p.Enqueue([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c1, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for i := 0; i < 4; i++ {
		if n, err := c1.Next(buf); err != nil || n != 1 || buf[0] != byte(i) {
			t.Fatalf("first consumer read %d: n=%d err=%v val=%d", i, n, err, buf[0])
		}
	}
	// Simulate a crash: unmap without Detach's PID handoff, then mark
	// the registration dead so the successor can take over.
	c1.seg.word(offConsPID).Store(1 << 30)
	c1.seg.detach()
	c2, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Detach()
	for i := 4; i < 10; i++ {
		if n, err := c2.Next(buf); err != nil || n != 1 || buf[0] != byte(i) {
			t.Fatalf("successor read %d: n=%d err=%v val=%d", i, n, err, buf[0])
		}
	}
}

// TestShmConsumerCrashResumeMultiLine is the regression test for the
// broker-pump crash shape: one TryDrain call hands back several lines
// before its single counter store, so a successor attaching after a
// SIGKILL at that point must walk past ALL of them, not just one —
// otherwise it resumes on a handed-back line whose rank never matches
// and wedges forever.
func TestShmConsumerCrashResumeMultiLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.ffq")
	p, err := Create(path, "t", 4, 56) // 7 values/line, 8 lines
	if err != nil {
		t.Fatal(err)
	}
	defer p.Detach()
	if v := p.Geometry().ValsPerLine; v != 7 {
		t.Fatalf("ValsPerLine = %d, want 7", v)
	}
	const total = 40
	buf4 := make([]byte, 4)
	for i := 0; i < total; i++ {
		binary.LittleEndian.PutUint32(buf4, uint32(i))
		if err := p.Enqueue(buf4); err != nil {
			t.Fatal(err)
		}
	}
	c1, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drain three full lines in one call, then roll the shared counter
	// back to its pre-drain value: exactly the shared-memory state a
	// SIGKILL between TryDrain's line hand-backs and its counter store
	// leaves behind.
	drained, err := c1.TryDrain(nil, 21)
	if err != nil || len(drained) != 21 {
		t.Fatalf("TryDrain = %d payloads, err %v", len(drained), err)
	}
	c1.seg.word(offDeqCount).Store(0)
	c1.seg.word(offConsPID).Store(1 << 30) // registration looks dead
	c1.seg.detach()

	c2, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Detach()
	buf := make([]byte, c2.Geometry().SlotSize)
	for i := 21; i < total; i++ {
		n, err := c2.Next(buf)
		if err != nil || n != 4 {
			t.Fatalf("successor read %d: n=%d err=%v", i, n, err)
		}
		if got := binary.LittleEndian.Uint32(buf); got != uint32(i) {
			t.Fatalf("successor read %d: got value %d", i, got)
		}
	}
	// The producer must not be wedged either: the reconciled counter
	// freed three lines' worth of space.
	for i := 0; i < 21; i++ {
		if ok, err := p.TryEnqueue(buf4); err != nil || !ok {
			t.Fatalf("producer enqueue %d after reconciliation: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestShmTryDrainOneArena: a drain copies what it takes into one
// arena sized from the values visible when it starts, across line
// boundaries and up to a partly published line, and honours max. The
// payloads stay intact once the producer refills their slots, and an
// append to one cannot spill into the next.
func TestShmTryDrainOneArena(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.ffq")
	p, err := Create(path, "t", 4, 56) // 7 values/line, 8 lines
	if err != nil {
		t.Fatal(err)
	}
	defer p.Detach()
	c, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	// Payload i is 1 to 4 bytes long, each byte derived from i.
	var buf [4]byte
	payload := func(i int) []byte {
		for k := range buf {
			buf[k] = byte(i + k)
		}
		return buf[:1+i%4]
	}
	publish := func(from, to int) {
		for i := from; i < to; i++ {
			if err := p.Enqueue(payload(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(got [][]byte, from int) {
		t.Helper()
		for k, m := range got {
			if want := payload(from + k); string(m) != string(want) || cap(m) != len(m) {
				t.Fatalf("payload %d = %q (cap %d), want %q", from+k, m, cap(m), want)
			}
		}
	}

	publish(0, 17) // two full lines and three values of the third
	first, err := c.TryDrain(nil, 10)
	if err != nil || len(first) != 10 {
		t.Fatalf("TryDrain(max 10) = %d payloads, err %v", len(first), err)
	}
	rest, err := c.TryDrain(nil, 64)
	if err != nil || len(rest) != 7 {
		t.Fatalf("TryDrain(max 64) = %d payloads, err %v; want the 7 visible", len(rest), err)
	}
	_ = append(first[0], "spill"...)
	// Refill the slots the drains read: the rest of the third line,
	// then the ring round to it again (70 values, ten full lines).
	publish(17, 70)
	check(first, 0)
	check(rest, 10)
	if all, err := c.TryDrain(nil, 64); err != nil || len(all) != 53 {
		t.Fatalf("TryDrain = %d payloads, err %v; want 53", len(all), err)
	}

	dst := make([][]byte, 0, 64)
	allocs := testing.AllocsPerRun(20, func() {
		publish(0, 14)
		if dst, err = c.TryDrain(dst[:0], 64); err != nil || len(dst) != 14 {
			t.Fatalf("TryDrain = %d payloads, err %v; want 14", len(dst), err)
		}
	})
	if allocs != 1 {
		t.Fatalf("a drain allocated %.1f times, want one arena", allocs)
	}
}

// TestShmTryDequeueTruncated: an undersized buffer consumes the value
// and must say so — ok=true with ErrTruncated — so a caller retrying
// on !ok cannot mistake the loss for "nothing ready".
func TestShmTryDequeueTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.ffq")
	p, err := Create(path, "t", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Detach()
	if err := p.Enqueue([]byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue([]byte("second")); err != nil {
		t.Fatal(err)
	}
	c, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	small := make([]byte, 4)
	n, ok, err := c.TryDequeue(small)
	if !ok || !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated TryDequeue: n=%d ok=%v err=%v, want ok=true ErrTruncated", n, ok, err)
	}
	if n != 4 || string(small) != "abcd" {
		t.Fatalf("truncated TryDequeue copied %d bytes %q", n, small[:n])
	}
	// The truncated value is gone; the next dequeue yields the second.
	buf := make([]byte, c.Geometry().SlotSize)
	n, ok, err = c.TryDequeue(buf)
	if err != nil || !ok || string(buf[:n]) != "second" {
		t.Fatalf("dequeue after truncation: n=%d ok=%v err=%v payload=%q", n, ok, err, buf[:n])
	}
}

// TestShmCreateClearsStaleTmp: a crashed producer's leftover tmp file
// must not wedge recreation at the same path with EEXIST.
func TestShmCreateClearsStaleTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.ffq")
	if err := os.WriteFile(path+".tmp", []byte("half-built wreckage"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Create(path, "t", 8, 16)
	if err != nil {
		t.Fatalf("Create over stale tmp: %v", err)
	}
	defer p.Detach()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("tmp file still present after Create: %v", err)
	}
	c, err := Attach(path)
	if err != nil {
		t.Fatalf("Attach recreated segment: %v", err)
	}
	c.Detach()
}

// --- two-process tests -------------------------------------------------

// TestShmHelperProducer is not a test: it is the child process of the
// two-process tests below, selected by FFQ_SHM_HELPER. It creates the
// segment (the real deployment order: producers create, the broker
// scanner attaches), publishes messages "m-0".."m-N", then either
// closes cleanly or hangs to be SIGKILLed.
func TestShmHelperProducer(t *testing.T) {
	mode := os.Getenv("FFQ_SHM_HELPER")
	if mode == "" {
		t.Skip("helper process entry point")
	}
	path := os.Getenv("FFQ_SHM_PATH")
	p, err := Create(path, "twoproc", 32, 128)
	if err != nil {
		t.Fatalf("helper create: %v", err)
	}
	// Kill mode publishes fewer messages than the ring holds so the
	// whole stream is in shared memory before the parent attaches;
	// clean mode streams 1000 and overlaps the parent's drain.
	n := 1000
	if mode == "kill" {
		n = 100
	}
	for i := 0; i < n; i++ {
		if err := p.Enqueue([]byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatalf("helper enqueue %d: %v", i, err)
		}
	}
	switch mode {
	case "clean":
		p.Close()
	case "kill":
		// Signal readiness by touching a sentinel file, then hang
		// until the parent SIGKILLs us.
		os.WriteFile(path+".ready", nil, 0o644)
		select {}
	}
}

func spawnHelper(t *testing.T, mode, path string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=TestShmHelperProducer$", "-test.v")
	cmd.Env = append(os.Environ(), "FFQ_SHM_HELPER="+mode, "FFQ_SHM_PATH="+path)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

func waitForFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("file %s never appeared", path)
}

// TestShmTwoProcess round-trips 1000 messages from a forked child
// producer through the mmap segment, exactly once, in order.
func TestShmTwoProcess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.ffq")
	cmd := spawnHelper(t, "clean", path)
	defer cmd.Wait()
	waitForFile(t, path)
	c, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	buf := make([]byte, c.Geometry().SlotSize)
	want := 0
	for {
		n, err := c.Next(buf)
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, expect := string(buf[:n]), fmt.Sprintf("m-%d", want); got != expect {
			t.Fatalf("message %d: got %q", want, got)
		}
		want++
	}
	if want != 1000 {
		t.Fatalf("drained %d messages, want 1000", want)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("helper exited with %v", err)
	}
}

// TestShmProducerKilled SIGKILLs the producer process and checks the
// consumer drains everything it published, then unblocks with
// ErrPeerDead via the heartbeat probe instead of spinning forever.
func TestShmProducerKilled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.ffq")
	cmd := spawnHelper(t, "kill", path)
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	waitForFile(t, path+".ready") // all 1000 messages published
	c, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	buf := make([]byte, c.Geometry().SlotSize)
	// The helper published all 100 messages before touching .ready.
	// Consume half while it is alive, kill it, then drain the rest.
	want := 0
	for want < 50 {
		n, err := c.Next(buf)
		if err != nil {
			t.Fatalf("read %d: %v", want, err)
		}
		if got, expect := string(buf[:n]), fmt.Sprintf("m-%d", want); got != expect {
			t.Fatalf("message %d: got %q", want, got)
		}
		want++
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	// Everything already published must still drain; then the dead
	// peer is detected.
	for {
		n, err := c.Next(buf)
		if errors.Is(err, ErrPeerDead) {
			break
		}
		if errors.Is(err, ErrClosed) {
			t.Fatal("segment reported closed; producer never called Close")
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, expect := string(buf[:n]), fmt.Sprintf("m-%d", want); got != expect {
			t.Fatalf("message %d: got %q", want, got)
		}
		want++
	}
	if want != 100 {
		t.Fatalf("drained %d published messages before ErrPeerDead, want 100", want)
	}
	if c.ProducerAlive() {
		t.Fatal("ProducerAlive still true after SIGKILL")
	}
}

// --- header validation -------------------------------------------------

func validHeaderBytes(t *testing.T) ([]byte, int64) {
	t.Helper()
	g, err := geometryFor(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, crcRegion)
	writeHeader(hdr, g, "valid")
	return hdr, int64(g.TotalSize)
}

func TestAttachFailClosed(t *testing.T) {
	hdr, size := validHeaderBytes(t)
	if err := ValidateHeader(hdr, size); err != nil {
		t.Fatalf("valid header refused: %v", err)
	}
	corrupt := func(name string, mutate func(h []byte) ([]byte, int64)) {
		h := make([]byte, len(hdr))
		copy(h, hdr)
		mutated, sz := mutate(h)
		if err := ValidateHeader(mutated, sz); !errors.Is(err, ErrBadSegment) {
			t.Errorf("%s: ValidateHeader = %v, want ErrBadSegment", name, err)
		}
	}
	corrupt("truncated", func(h []byte) ([]byte, int64) { return h[:40], size })
	corrupt("bad magic", func(h []byte) ([]byte, int64) {
		binary.LittleEndian.PutUint64(h[offMagic:], 0xdeadbeef)
		return h, size
	})
	corrupt("wrong version", func(h []byte) ([]byte, int64) {
		binary.LittleEndian.PutUint32(h[offVersion:], Version+1)
		binary.LittleEndian.PutUint32(h[offCRC:], headerCRC(h))
		return h, size
	})
	corrupt("checksum damage", func(h []byte) ([]byte, int64) {
		h[offTopic]++
		return h, size
	})
	corrupt("lines not a power of two", func(h []byte) ([]byte, int64) {
		binary.LittleEndian.PutUint64(h[offLines:], 3)
		binary.LittleEndian.PutUint32(h[offCRC:], headerCRC(h))
		return h, size
	})
	corrupt("absurd line count", func(h []byte) ([]byte, int64) {
		binary.LittleEndian.PutUint64(h[offLines:], 1<<40)
		binary.LittleEndian.PutUint32(h[offCRC:], headerCRC(h))
		return h, size
	})
	corrupt("stride mismatch", func(h []byte) ([]byte, int64) {
		binary.LittleEndian.PutUint64(h[offCellStride:], 128)
		binary.LittleEndian.PutUint32(h[offCRC:], headerCRC(h))
		return h, size
	})
	corrupt("size mismatch", func(h []byte) ([]byte, int64) { return h, size - 64 })
	corrupt("oversized topic", func(h []byte) ([]byte, int64) {
		binary.LittleEndian.PutUint32(h[offTopicLen:], maxTopicLen+1)
		binary.LittleEndian.PutUint32(h[offCRC:], headerCRC(h))
		return h, size
	})
}

// TestAttachRefusesGarbageFiles exercises the real Attach path (not
// just ValidateHeader) against on-disk garbage.
func TestAttachRefusesGarbageFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := Attach(write("tiny.ffq", []byte("hello"))); !errors.Is(err, ErrBadSegment) {
		t.Errorf("tiny file: %v", err)
	}
	junk := make([]byte, headerBytes+64)
	for i := range junk {
		junk[i] = byte(i)
	}
	if _, err := Attach(write("junk.ffq", junk)); !errors.Is(err, ErrBadSegment) {
		t.Errorf("junk file: %v", err)
	}
	// A valid header over a file of the wrong length must be refused
	// before mmap.
	hdr, _ := validHeaderBytes(t)
	short := make([]byte, headerBytes+128)
	copy(short, hdr)
	if _, err := Attach(write("short.ffq", short)); !errors.Is(err, ErrBadSegment) {
		t.Errorf("short file: %v", err)
	}
}
