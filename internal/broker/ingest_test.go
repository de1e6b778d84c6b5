package broker

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"ffq/internal/broker/client"
)

// TestIngestAllocBudget: ingest is frame-owned from end to end. The
// client's publish arena, the reader's one clone per PRODUCE frame,
// the pump's reused scratch and the client's one copy per DELIVER
// frame make a 64-message batch cost a few allocations in all, where
// copying each message costs at least one per message.
func TestIngestAllocBudget(t *testing.T) {
	const (
		msgs   = 64 << 10
		size   = 64
		warmup = 4096
		budget = 0.1 // process-wide mallocs per delivered message
	)
	b, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		b.Shutdown(ctx)
	}()
	pnc, psnc := net.Pipe()
	b.ServeConn(psnc)
	cnc, csnc := net.Pipe()
	b.ServeConn(csnc)
	prod := client.New(pnc, client.Options{MaxBatch: 64})
	defer pnc.Close()
	cons := client.New(cnc, client.Options{})
	defer cnc.Close()
	sub, err := cons.Subscribe("alloc", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Message seq carries seq in its first 8 bytes and byte(seq+i) after.
	publish := func(from, to int) <-chan error {
		done := make(chan error, 1)
		go func() {
			buf := make([]byte, size)
			for seq := from; seq < to; seq++ {
				binary.BigEndian.PutUint64(buf, uint64(seq))
				for i := 8; i < size; i++ {
					buf[i] = byte(seq + i)
				}
				if err := prod.Publish("alloc", buf); err != nil {
					done <- err
					return
				}
			}
			done <- prod.Drain()
		}()
		return done
	}
	// recv checks exactly-once FIFO delivery of [from, to).
	recv := func(from, to int) error {
		for seq := from; seq < to; seq++ {
			m, ok := sub.Recv()
			if !ok {
				return fmt.Errorf("stream ended before message %d: %v", seq, cons.Err())
			}
			if len(m) != size || binary.BigEndian.Uint64(m) != uint64(seq) {
				return fmt.Errorf("want message %d (%d bytes), got %d bytes %x", seq, size, len(m), m[:min(len(m), 8)])
			}
			for i := 8; i < size; i++ {
				if m[i] != byte(seq+i) {
					return fmt.Errorf("message %d: byte %d corrupted", seq, i)
				}
			}
		}
		return nil
	}

	// Warm up the topic, lanes, buffers and goroutines before counting.
	done := publish(0, warmup)
	if err := recv(0, warmup); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done = publish(warmup, warmup+msgs)
	if err := recv(warmup, warmup+msgs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// One more message must arrive next: nothing was delivered twice.
	done = publish(warmup+msgs, warmup+msgs+1)
	if err := recv(warmup+msgs, warmup+msgs+1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	per := float64(after.Mallocs-before.Mallocs) / msgs
	t.Logf("%d messages of %d B at MaxBatch 64: %.4f mallocs per delivered message (budget %.2f)", msgs, size, per, budget)
	if per > budget {
		t.Fatalf("%.4f mallocs per delivered message, budget %.2f", per, budget)
	}
}

// TestConcurrentPublishOneClient: several goroutines share one
// client's publish arena under a window smaller than MaxBatch, so
// flushes compact the arena while other Publishes append to it and
// the flush timer fires. Every message must still arrive exactly once,
// in each publisher's order.
func TestConcurrentPublishOneClient(t *testing.T) {
	const (
		publishers = 4
		each       = 20_000
	)
	b, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		b.Shutdown(ctx)
	}()
	pnc, psnc := net.Pipe()
	b.ServeConn(psnc)
	cnc, csnc := net.Pipe()
	b.ServeConn(csnc)
	prod := client.New(pnc, client.Options{MaxBatch: 64, Window: 48})
	defer pnc.Close()
	cons := client.New(cnc, client.Options{})
	defer cnc.Close()
	sub, err := cons.Subscribe("shared", 0)
	if err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, publishers)
	for w := 0; w < publishers; w++ {
		go func() {
			// Message (w, seq) is 8+w%3*20 bytes: w, then seq.
			buf := make([]byte, 8+w%3*20)
			for seq := 0; seq < each; seq++ {
				binary.BigEndian.PutUint32(buf, uint32(w))
				binary.BigEndian.PutUint32(buf[4:], uint32(seq))
				if err := prod.Publish("shared", buf); err != nil {
					errs <- err
					return
				}
			}
			errs <- prod.Drain()
		}()
	}
	var next [publishers]int
	for n := 0; n < publishers*each; n++ {
		m, ok := sub.Recv()
		if !ok {
			t.Fatalf("stream ended after %d messages: %v", n, cons.Err())
		}
		w := int(binary.BigEndian.Uint32(m))
		if w >= publishers || len(m) != 8+w%3*20 {
			t.Fatalf("message %d: %d bytes %x", n, len(m), m)
		}
		if seq := int(binary.BigEndian.Uint32(m[4:])); seq != next[w] {
			t.Fatalf("publisher %d: got message %d, want %d", w, seq, next[w])
		}
		next[w]++
	}
	for w := 0; w < publishers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
