package client

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"ffq/internal/wire"
)

// ack is one cumulative acknowledgement for ackServer's writer.
type ack struct {
	topic []byte
	part  uint32
	seq   uint64
}

// served is ackServer's outcome: the messages it read in order, and
// the error that ended reading (nil at a clean end of stream).
type served struct {
	msgs uint64
	err  error
}

// ackServer plays the broker's produce side on nc: it checks that the
// PRODUCE frames carry messages 0, 1, 2, ... (each starting with its
// sequence number) and acknowledges them cumulatively. Like the
// broker, it writes ACKs from a goroutine of their own, so its reads
// never wait for the client to read an ACK. Once reading fails it
// sends how many messages arrived and the error that ended it.
func ackServer(nc net.Conn, size, maxFrames int) <-chan served {
	done := make(chan served, 1)
	acks := make(chan ack, maxFrames)
	go func() {
		var buf wire.Buffer
		for a := range acks {
			buf.Reset()
			buf.PutAck(0, a.topic, a.part, a.seq)
			if _, err := nc.Write(buf.Bytes()); err != nil {
				return
			}
		}
	}()
	go func() {
		defer close(acks)
		r := wire.NewReader(nc)
		var next uint64
		for {
			f, err := r.Next()
			if err == io.EOF {
				done <- served{msgs: next}
				return
			}
			if err != nil {
				done <- served{next, err}
				return
			}
			p, err := wire.ParseProduce(f)
			if err != nil {
				done <- served{next, err}
				return
			}
			for m, ok := p.Next(); ok; m, ok = p.Next() {
				if len(m) != size || binary.BigEndian.Uint64(m) != next {
					done <- served{next, fmt.Errorf("want message %d, got %x", next, m[:min(len(m), 8)])}
					return
				}
				next++
			}
			acks <- ack{topic: append([]byte(nil), p.Topic...), part: p.Part, seq: next}
		}
	}()
	return done
}

// TestPublishArenaBounded: with a window smaller than MaxBatch every
// flush leaves messages pending, so an arena that reset only when
// empty would grow without limit. Compacting it with pending keeps it
// within one batch, and every message still arrives exactly once, in
// order.
func TestPublishArenaBounded(t *testing.T) {
	const (
		msgs     = 200_000
		size     = 64
		maxBatch = 64
		bound    = 2 * maxBatch * size
	)
	cnc, snc := net.Pipe()
	srv := ackServer(snc, size, msgs)
	c := New(cnc, Options{MaxBatch: maxBatch, Window: 48})
	buf := make([]byte, size)
	p := c.pub("jobs", NoPartition)
	for seq := 0; seq < msgs; seq++ {
		binary.BigEndian.PutUint64(buf, uint64(seq))
		if err := c.Publish("jobs", buf); err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		grown := cap(p.arena)
		p.mu.Unlock()
		if grown > bound {
			t.Fatalf("after %d publishes the arena holds %d bytes, bound %d", seq+1, grown, bound)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got := <-srv; got.err != nil || got.msgs != msgs {
		t.Fatalf("broker side read %d of %d messages: %v", got.msgs, msgs, got.err)
	}
}

// TestPublishTwoTopicsSyncPeer: two goroutines publish to two topics
// of one client while the peer reads a PRODUCE frame and writes its
// ACK before it reads on, so a write of one topic's frame can only
// finish once the client's read loop has taken the other topic's
// ACK. A flush that waited for the connection's write lock while
// holding its topic's lock would close a cycle with the read loop,
// which needs that topic's lock to apply the ACK.
func TestPublishTwoTopicsSyncPeer(t *testing.T) {
	const (
		msgs = 50_000
		size = 8
	)
	cnc, snc := net.Pipe()
	defer snc.Close()
	srvErr := make(chan error, 1)
	got := map[string]uint64{}
	go func() {
		r := wire.NewReader(snc)
		var buf wire.Buffer
		for {
			f, err := r.Next()
			if err != nil {
				srvErr <- err
				return
			}
			p, err := wire.ParseProduce(f)
			if err != nil {
				srvErr <- err
				return
			}
			topic := string(p.Topic)
			for m, ok := p.Next(); ok; m, ok = p.Next() {
				if len(m) != size || binary.BigEndian.Uint64(m) != got[topic] {
					srvErr <- fmt.Errorf("%s: want message %d, got %x", topic, got[topic], m)
					return
				}
				got[topic]++
			}
			buf.Reset()
			buf.PutAck(0, p.Topic, p.Part, got[topic])
			if _, err := snc.Write(buf.Bytes()); err != nil {
				srvErr <- err
				return
			}
		}
	}()
	c := New(cnc, Options{MaxBatch: 8, Window: 16})
	pubErr := make(chan error, 2)
	for _, topic := range []string{"a", "b"} {
		go func() {
			buf := make([]byte, size)
			for seq := uint64(0); seq < msgs; seq++ {
				binary.BigEndian.PutUint64(buf, seq)
				if err := c.Publish(topic, buf); err != nil {
					pubErr <- err
					return
				}
			}
			pubErr <- c.Drain()
		}()
	}
	deadline := time.After(10 * time.Second)
	for range 2 {
		select {
		case err := <-pubErr:
			if err != nil {
				t.Fatal(err)
			}
		case err := <-srvErr:
			t.Fatalf("peer: %v", err)
		case <-deadline:
			// Closing the pipe unblocks the stuck writers; Close would
			// wait on them in its Flush.
			cnc.Close()
			t.Fatal("publishers still blocked after 10s: client deadlocked")
		}
	}
	c.Close()
}
