package broker

import (
	"context"
	"net"
	"testing"
	"time"

	"ffq/internal/broker/client"
	"ffq/internal/wire"
)

// TestIngestFailureFailsProducer: a batch the topic's log rejects
// must fail its producer, not leave it blocked on a window the pump
// will never acknowledge. Sealing the log stands in for a failed
// append (a full disk, a broken segment).
func TestIngestFailureFailsProducer(t *testing.T) {
	b, err := New(Options{DataDir: t.TempDir(), SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		b.Shutdown(ctx)
	}()
	tp, err := b.getTopic("jobs", wire.NoPartition)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.log.Seal(); err != nil {
		t.Fatal(err)
	}

	cnc, snc := net.Pipe()
	b.ServeConn(snc)
	c := client.New(cnc, client.Options{})
	// Closing the raw socket (not c.Close, which flushes) unblocks a
	// producer that is still hung when the test fails.
	defer cnc.Close()

	// More messages than one publish window: without the failure the
	// producer blocks on the window once it is full.
	const msgs = 5000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := c.Publish("jobs", []byte("payload")); err != nil {
				done <- err
				return
			}
		}
		done <- c.Drain()
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("publishing into a sealed log succeeded")
		}
		t.Logf("producer failed as expected: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("producer still blocked 2s after the log rejected its batch")
	}
}
