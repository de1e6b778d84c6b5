package broker_test

import (
	"context"
	"encoding/binary"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ffq/internal/broker"
	"ffq/internal/broker/client"
	"ffq/internal/obs/expvarx"
	"ffq/internal/wire"
)

// startBroker runs a broker on a loopback TCP listener and returns it
// with its address and a shutdown helper.
func startBroker(t *testing.T, opts broker.Options) (*broker.Broker, string) {
	t.Helper()
	b, err := broker.New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go b.Serve(ln)
	return b, ln.Addr().String()
}

// msg encodes (producer, seq) as a fixed 9-byte payload.
func msg(producer byte, seq uint64) []byte {
	m := make([]byte, 9)
	m[0] = producer
	binary.BigEndian.PutUint64(m[1:], seq)
	return m
}

// TestFanOutTCP is the end-to-end acceptance test: 4 producer
// connections × 4 consumer connections over real TCP, every message
// delivered exactly once, per-producer FIFO preserved at each
// consumer, and a graceful Shutdown that drains the backlog and ends
// every subscription with the end-of-stream marker.
func TestFanOutTCP(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	b, addr := startBroker(t, broker.Options{})

	// Consumers first, so deliveries start while producing is underway.
	type recvd struct {
		producer byte
		seq      uint64
	}
	got := make([][]recvd, consumers)
	var consumerWG sync.WaitGroup
	for ci := 0; ci < consumers; ci++ {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatalf("consumer dial: %v", err)
		}
		defer c.Close()
		sub, err := c.Subscribe("orders", 256)
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		consumerWG.Add(1)
		go func(ci int) {
			defer consumerWG.Done()
			for {
				m, ok := sub.Recv()
				if !ok {
					// A graceful drain ends with the FlagEnd marker; the
					// broker closing the socket afterwards is expected.
					if !sub.Ended() {
						t.Errorf("consumer %d: stream ended without end-of-stream marker: %v", ci, c.Err())
					}
					return
				}
				if len(m) != 9 {
					t.Errorf("consumer %d: bad payload length %d", ci, len(m))
					return
				}
				got[ci] = append(got[ci], recvd{m[0], binary.BigEndian.Uint64(m[1:])})
			}
		}(ci)
	}

	var producerWG sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		producerWG.Add(1)
		go func(pi int) {
			defer producerWG.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Errorf("producer dial: %v", err)
				return
			}
			defer c.Close()
			for seq := uint64(0); seq < perProd; seq++ {
				if err := c.Publish("orders", msg(byte(pi), seq)); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
			// Drain guarantees the broker has accepted (ACKed) every
			// message before we allow Shutdown.
			if err := c.Drain(); err != nil {
				t.Errorf("drain: %v", err)
			}
		}(pi)
	}
	producerWG.Wait()

	// Shutdown drains: backlog flows to the consumers, then every
	// subscription sees end-of-stream, closing the Recv channels.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	consumerWG.Wait()

	// Exactly once, nothing lost.
	seen := make(map[recvd]int)
	total := 0
	for ci := range got {
		total += len(got[ci])
		for _, r := range got[ci] {
			seen[r]++
		}
	}
	if want := producers * perProd; total != want {
		t.Fatalf("delivered %d messages, want %d", total, want)
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("message (producer %d, seq %d) delivered %d times", r.producer, r.seq, n)
		}
	}
	// Per-producer FIFO at each consumer.
	for ci := range got {
		last := map[byte]uint64{}
		for _, r := range got[ci] {
			if prev, ok := last[r.producer]; ok && r.seq <= prev {
				t.Fatalf("consumer %d: producer %d seq %d after %d", ci, r.producer, r.seq, prev)
			}
			last[r.producer] = r.seq
		}
	}
}

// TestSelfConsumingPublisherLive is the staging liveness bound: one
// connection publishes 50k messages to a topic it consumes with a
// 64-message credit window, so its CREDIT frames queue behind up to a
// publish window of PRODUCE frames (1024 of them at MaxBatch 1).
func TestSelfConsumingPublisherLive(t *testing.T) {
	const total = 50_000
	for _, maxBatch := range []int{64, 1} {
		t.Run("MaxBatch="+strconv.Itoa(maxBatch), func(t *testing.T) {
			b, addr := startBroker(t, broker.Options{})
			c, err := client.Dial(addr, client.Options{MaxBatch: maxBatch})
			if err != nil {
				t.Fatal(err)
			}
			sub, err := c.Subscribe("loop", 64)
			if err != nil {
				t.Fatal(err)
			}
			got := make(chan uint64, 1)
			go func() {
				var next uint64
				for m, ok := sub.Recv(); ok && binary.BigEndian.Uint64(m[1:]) == next; m, ok = sub.Recv() {
					if next++; next == total {
						break
					}
				}
				got <- next
			}()
			go func() {
				for i := range total {
					if c.Publish("loop", msg(0, uint64(i))) != nil {
						return
					}
				}
			}()
			select {
			case n := <-got:
				if n != total {
					t.Fatalf("received %d of %d messages in order (client err %v)", n, total, c.Err())
				}
			case <-time.After(60 * time.Second):
				m := b.Metrics()
				// No Close: it would block flushing into the full window.
				t.Fatalf("wedged: %d of %d messages in, %d out", m.MsgsIn.Load(), total, m.MsgsOut.Load())
			}
			b.Shutdown(context.Background())
			c.Close()
		})
	}
}

// TestLaneExhaustionFallback runs more producing connections than the
// topic has lanes, so some pumps lose the AcquireProducer race and take
// the transiently-claimed shared-lane path. Delivery must still be
// exactly-once with per-producer FIFO at every consumer.
func TestLaneExhaustionFallback(t *testing.T) {
	const (
		producers = 6
		consumers = 2
		perProd   = 2000
	)
	b, addr := startBroker(t, broker.Options{TopicLanes: 2, TopicLaneDepth: 64})

	type recvd struct {
		producer byte
		seq      uint64
	}
	got := make([][]recvd, consumers)
	var consumerWG sync.WaitGroup
	for ci := 0; ci < consumers; ci++ {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatalf("consumer dial: %v", err)
		}
		defer c.Close()
		sub, err := c.Subscribe("narrow", 256)
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		consumerWG.Add(1)
		go func(ci int) {
			defer consumerWG.Done()
			for {
				m, ok := sub.Recv()
				if !ok {
					if !sub.Ended() {
						t.Errorf("consumer %d: no end-of-stream marker: %v", ci, c.Err())
					}
					return
				}
				got[ci] = append(got[ci], recvd{m[0], binary.BigEndian.Uint64(m[1:])})
			}
		}(ci)
	}

	var producerWG sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		producerWG.Add(1)
		go func(pi int) {
			defer producerWG.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Errorf("producer dial: %v", err)
				return
			}
			defer c.Close()
			for seq := uint64(0); seq < perProd; seq++ {
				if err := c.Publish("narrow", msg(byte(pi), seq)); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
			if err := c.Drain(); err != nil {
				t.Errorf("drain: %v", err)
			}
		}(pi)
	}
	producerWG.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	consumerWG.Wait()

	seen := make(map[recvd]int)
	total := 0
	for ci := range got {
		total += len(got[ci])
		for _, r := range got[ci] {
			seen[r]++
		}
	}
	if want := producers * perProd; total != want {
		t.Fatalf("delivered %d messages, want %d", total, want)
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("message (producer %d, seq %d) delivered %d times", r.producer, r.seq, n)
		}
	}
	for ci := range got {
		last := map[byte]uint64{}
		for _, r := range got[ci] {
			if prev, ok := last[r.producer]; ok && r.seq <= prev {
				t.Fatalf("consumer %d: producer %d seq %d after %d", ci, r.producer, r.seq, prev)
			}
			last[r.producer] = r.seq
		}
	}
}

// TestCreditGatesDelivery drives the wire protocol directly: a
// subscription with credit 2 must receive exactly 2 of 10 queued
// messages, and the rest only after a CREDIT grant.
func TestCreditGatesDelivery(t *testing.T) {
	b, addr := startBroker(t, broker.Options{})
	defer b.Shutdown(context.Background())

	// Producer: queue 10 messages and wait for the cumulative ACK.
	prod, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer prod.Close()
	for i := 0; i < 10; i++ {
		if err := prod.Publish("gated", msg(0, uint64(i))); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	if err := prod.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Raw consumer with an initial credit of 2.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	var buf wire.Buffer
	buf.PutConsume([]byte("gated"), wire.NoPartition, 2)
	if _, err := nc.Write(buf.Bytes()); err != nil {
		t.Fatalf("write: %v", err)
	}

	r := wire.NewReader(nc)
	recv := func(deadline time.Duration) int {
		n := 0
		for {
			nc.SetReadDeadline(time.Now().Add(deadline))
			f, err := r.Next()
			if err != nil {
				return n // deadline: no more deliveries in flight
			}
			if f.Type != wire.TProduce || f.Flags&wire.FlagDeliver == 0 {
				t.Fatalf("unexpected frame type %d flags %d", f.Type, f.Flags)
			}
			p, err := wire.ParseProduce(f)
			if err != nil {
				t.Fatalf("ParseProduce: %v", err)
			}
			n += p.N
		}
	}
	if n := recv(time.Second); n != 2 {
		t.Fatalf("got %d messages with credit 2, want 2", n)
	}
	buf.Reset()
	buf.PutCredit([]byte("gated"), wire.NoPartition, 8)
	if _, err := nc.Write(buf.Bytes()); err != nil {
		t.Fatalf("write credit: %v", err)
	}
	if n := recv(time.Second); n != 8 {
		t.Fatalf("got %d messages after CREDIT 8, want 8", n)
	}
}

// TestPipeLoopback exercises ServeConn with net.Pipe ends — the
// transport the loopback benchmark uses — including PING round-trips.
func TestPipeLoopback(t *testing.T) {
	b, err := broker.New(broker.Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv, cli := net.Pipe()
	b.ServeConn(srv)
	c := client.New(cli, client.Options{MaxBatch: 8})

	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	sub, err := c.Subscribe("pipe", 64)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Publish("pipe", msg(1, uint64(i))); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < 100; i++ {
		m, ok := sub.Recv()
		if !ok {
			t.Fatalf("stream ended at message %d: %v", i, c.Err())
		}
		if got := binary.BigEndian.Uint64(m[1:]); got != uint64(i) {
			t.Fatalf("message %d out of order: got seq %d", i, got)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, ok := sub.Recv(); ok {
		t.Fatal("Recv delivered after end-of-stream")
	}
	c.Close()
}

// TestProtocolErrorTearsDownConn checks the fail-closed path: a bogus
// frame type gets an ERR frame back and the connection is dropped
// without taking the broker down.
func TestProtocolErrorTearsDownConn(t *testing.T) {
	b, addr := startBroker(t, broker.Options{})
	defer b.Shutdown(context.Background())

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// Frame type 99 is not a thing.
	if _, err := nc.Write([]byte{0, 0, 0, 2, 99, 0}); err != nil {
		t.Fatalf("write: %v", err)
	}
	r := wire.NewReader(nc)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := r.Next()
	if err != nil {
		t.Fatalf("expected ERR frame, got %v", err)
	}
	if f.Type != wire.TErr {
		t.Fatalf("expected TErr, got type %d", f.Type)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("connection still open after protocol error")
	}
	if n := b.Metrics().ProtoErrors.Load(); n != 1 {
		t.Fatalf("ProtoErrors = %d, want 1", n)
	}

	// The broker still serves new connections.
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial after error: %v", err)
	}
	defer c.Close()
	if err := c.Publish("still-alive", msg(0, 0)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestMetricsExposition checks that an instrumented broker shows up in
// the Prometheus endpoint: its own ffqd_* families plus a per-topic
// queue registration.
func TestMetricsExposition(t *testing.T) {
	b, addr := startBroker(t, broker.Options{
		Instrument:    true,
		MetricsPrefix: "ffqd_test",
	})

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	sub, err := c.Subscribe("metrics", 32)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Publish("metrics", msg(0, uint64(i))); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := sub.Recv(); !ok {
			t.Fatalf("stream ended early: %v", c.Err())
		}
	}

	// MsgsOut is counted just after the DELIVER write, so it can trail
	// the client's Recv by an instant; poll briefly.
	wants := []string{
		"ffqd_connections 1",
		"ffqd_messages_in_total 10",
		"ffqd_messages_out_total 10",
		`ffqd_topic_subscribers{topic="metrics"} 1`,
		`ffq_enqueues_total{queue="ffqd_test/topic/metrics"}`,
		`ffq_lane_depth{queue="ffqd_test/topic/metrics",lane="0"}`,
	}
	var expo string
	deadline := time.Now().Add(5 * time.Second)
	for {
		expo = expvarx.Exposition()
		missing := false
		for _, want := range wants {
			if !strings.Contains(expo, want) {
				missing = true
			}
		}
		if !missing || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range wants {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Shutdown unregisters: the families disappear from the exposition.
	if expo := expvarx.Exposition(); strings.Contains(expo, "ffqd_test/topic/metrics") {
		t.Error("topic queue still registered after Shutdown")
	}
}

// TestLatencyMetricsExposition checks the tail-latency families end to
// end: an instrumented broker with OpLatency and the stall watchdog
// armed exports the per-topic residence-time histogram
// (ffqd_e2e_latency_ns), the topic queue's per-op histograms
// (ffq_op_latency_ns) and the stall counter — and the exposition
// round-trips through the parse-side quantile helper ffq-top -scrape
// uses.
func TestLatencyMetricsExposition(t *testing.T) {
	b, addr := startBroker(t, broker.Options{
		Instrument:     true,
		OpLatency:      true,
		StallThreshold: time.Microsecond,
		MetricsPrefix:  "ffqd_lat",
	})

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	sub, err := c.Subscribe("lat", 32)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Publish("lat", msg(0, uint64(i))); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := sub.Recv(); !ok {
			t.Fatalf("stream ended early: %v", c.Err())
		}
	}

	// The delivery-side stamp lands just before the DELIVER write, so it
	// can trail the client's Recv by an instant; poll briefly.
	wants := []string{
		`ffqd_e2e_latency_ns_count{topic="lat"} 10`,
		`ffq_op_latency_ns_bucket{queue="ffqd_lat/topic/lat",op="enqueue"`,
		`ffq_op_latency_ns_bucket{queue="ffqd_lat/topic/lat",op="dequeue"`,
		`ffq_stall_events_total{queue="ffqd_lat/topic/lat"}`,
	}
	var expo string
	deadline := time.Now().Add(5 * time.Second)
	for {
		expo = expvarx.Exposition()
		missing := false
		for _, want := range wants {
			if !strings.Contains(expo, want) {
				missing = true
			}
		}
		if !missing || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range wants {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Round-trip through the parser: the scrape side must recover a
	// usable residence-time percentile from the folded histogram.
	samples, err := expvarx.Parse(strings.NewReader(expo))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ss := expvarx.NewSampleSet(samples)
	if p99, ok := ss.HistQuantile("ffqd_e2e_latency_ns", map[string]string{"topic": "lat"}, 0.99); !ok || p99 <= 0 {
		t.Errorf("e2e p99 = %v ok=%v, want a positive quantile", p99, ok)
	}
	if _, ok := ss.HistQuantile("ffq_op_latency_ns",
		map[string]string{"queue": "ffqd_lat/topic/lat", "op": "dequeue"}, 0.999); !ok {
		t.Error("per-op dequeue histogram not recoverable from the exposition")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if expo := expvarx.Exposition(); strings.Contains(expo, "ffqd_lat") {
		t.Error("latency families still registered after Shutdown")
	}

	// An uninstrumented broker registers none of it.
	b2, addr2 := startBroker(t, broker.Options{MetricsPrefix: "ffqd_off"})
	c2, err := client.Dial(addr2, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c2.Publish("lat", msg(0, 0)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := c2.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c2.Close()
	if expo := expvarx.Exposition(); strings.Contains(expo, "ffqd_off") {
		t.Error("uninstrumented broker leaked metrics registrations")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := b2.Shutdown(ctx2); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
