// Broker: FFQ fan-out put on the network. This example runs an
// in-process ffqd broker, connects three clients over real loopback
// TCP — one producer, two competing consumers — and moves 10,000
// messages through a topic:
//
//   - the producer's Publish calls are auto-batched into PRODUCE
//     frames (one frame per ~64 messages, amortizing the syscall the
//     way EnqueueBatch amortizes the rank fetch-and-add);
//
//   - the broker stages each connection's frames through a bounded
//     SPSC queue (the paper's one-queue-per-producer shape) and feeds
//     the topic's sharded queue, whose bounded FFQ^s lanes give each
//     connection its own lane;
//
//   - the consumers claim competitively with TryDequeue under a
//     credit window, so each message is delivered exactly once and a
//     stalled consumer only idles its own window;
//
//   - Shutdown drains: staged batches are flushed, the topic closes,
//     and each subscription receives every remaining message before
//     its end-of-stream marker.
//
//     go run ./examples/broker
package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"ffq/internal/broker"
	"ffq/internal/broker/client"
)

const (
	total     = 10_000
	consumers = 2
)

func main() {
	b, err := broker.New(broker.Options{})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- b.Serve(ln) }()
	addr := ln.Addr().String()

	// Two consumers join the topic's competitive pool: each message
	// goes to exactly one of them.
	var wg sync.WaitGroup
	counts := make([]int, consumers)
	for i := 0; i < consumers; i++ {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			panic(err)
		}
		sub, err := c.Subscribe("orders", 256)
		if err != nil {
			panic(err)
		}
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			defer c.Close()
			for {
				if _, ok := sub.Recv(); !ok {
					return
				}
				counts[i]++
			}
		}(i, c)
	}

	// One producer publishes and drains; Drain returning nil means the
	// broker ACKed (accepted into a topic queue) every message.
	p, err := client.Dial(addr, client.Options{})
	if err != nil {
		panic(err)
	}
	start := time.Now()
	for n := 0; n < total; n++ {
		if err := p.Publish("orders", fmt.Appendf(nil, "order-%d", n)); err != nil {
			panic(err)
		}
	}
	if err := p.Drain(); err != nil {
		panic(err)
	}
	p.Close()

	// Graceful drain: consumers receive everything in flight, then
	// their end-of-stream markers; Recv returns ok=false and the
	// goroutines exit.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		panic(err)
	}
	wg.Wait()
	// Shutdown closed the listener, so Serve has returned; join it and
	// surface any accept-loop error it swallowed.
	if err := <-serveErr; err != nil {
		panic(err)
	}

	sum := 0
	for i, n := range counts {
		fmt.Printf("consumer %d received %d\n", i, n)
		sum += n
	}
	m := b.Metrics()
	fmt.Printf("total %d/%d in %s (%d PRODUCE frames in, %d DELIVER frames out)\n",
		sum, total, time.Since(start).Round(time.Millisecond),
		m.ProduceFrames.Load(), m.DeliverFrames.Load())
	if sum != total {
		panic("message loss")
	}
}
