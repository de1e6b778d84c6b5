// Command ffqd is the FFQ message broker daemon: it serves the ffqd
// wire protocol on a TCP listener, fanning PRODUCE batches out to
// credit-gated subscribers through per-topic sharded FFQ queues —
// one wait-free producer lane per connection (see internal/broker for
// the data plane and internal/wire for the frame format).
//
// Usage:
//
//	ffqd                                     # listen on :7077
//	ffqd -listen :7077 -metrics :9077        # plus Prometheus /metrics
//	                                         # and expvar /debug/vars
//	ffqd -topic-lanes 16 -lane-depth 4096 -deliver-batch 128
//	ffqd -drain-timeout 10s                  # bound for graceful shutdown
//	ffqd -metrics :9077 -op-latency \
//	     -stall-threshold 5ms                # per-op latency histograms and
//	                                         # stall events on topic queues
//	ffqd -data-dir /var/lib/ffqd \
//	     -fsync interval -fsync-interval 50ms \
//	     -segment-bytes 67108864 \
//	     -retention-bytes 1073741824 -retention-age 72h
//	                                         # durable topics: WAL-backed
//	                                         # persistence with replay
//	ffqd -cluster -node-id n1 \
//	     -peers n1=10.0.0.1:7077,n2=10.0.0.2:7077,n3=10.0.0.3:7077 \
//	     -partitions 8 -replication 2 -data-dir /var/lib/ffqd
//	                                         # clustered: partitioned topics,
//	                                         # rendezvous placement, async
//	                                         # follower replication
//
// With -cluster set, topics are partitioned: producers route each
// message by key to one of -partitions partitions (FNV-1a of the key,
// computed client-side), every (topic, partition) is placed on
// -replication nodes by rendezvous hashing over the static -peers
// list, and each non-owner holder runs a strict log follower that
// copies the owner's WAL into a local one and acks its progress as a
// __replica/<node-id> cursor on the owner. PRODUCE and live CONSUME
// are owner-only; replay and OFFSETS are served by replicas too. All
// nodes must agree on -peers, -partitions and -replication.
//
// With -data-dir set every topic is durable: PRODUCE batches are
// appended to a per-topic write-ahead log before they are
// acknowledged, consumers can replay from any retained offset
// (ffq-cli consume -from / -group), and a restart recovers the logs —
// including truncating a torn tail after a crash. -fsync picks the
// durability/throughput trade: "off" (OS page cache), "interval"
// (background fsync every -fsync-interval), "segment" (fsync at each
// segment roll), "always" (fsync before every ACK).
//
// SIGINT or SIGTERM starts a graceful drain: accepted messages are
// flushed to their topics and delivered to subscribers (still
// credit-gated, so consumers keep replenishing windows during the
// drain) before the process exits. -drain-timeout bounds the wait;
// on expiry the remaining subscriptions are cut off.
//
// Watch a running broker with ffq-top -scrape <metrics-addr>.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ffq/internal/broker"
	"ffq/internal/cluster"
	"ffq/internal/obs/expvarx"
	"ffq/internal/wal"
)

func main() {
	listen := flag.String("listen", ":7077", "address to serve the ffqd wire protocol on")
	metrics := flag.String("metrics", "", "serve Prometheus /metrics and expvar /debug/vars on this address (empty = off)")
	topicLanes := flag.Int("topic-lanes", 0, "per-producer lanes per topic queue (0 = default)")
	laneDepth := flag.Int("lane-depth", 0, "per-lane topic capacity in messages, a power of two (0 = default)")
	deliverBatch := flag.Int("deliver-batch", 0, "max messages per DELIVER frame (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
	noInstrument := flag.Bool("no-instrument", false, "disable queue instrumentation and the metrics collectors")
	opLatency := flag.Bool("op-latency", false, "record per-op enqueue/dequeue latency histograms on topic queues (ffq_op_latency_ns)")
	stallTh := flag.Duration("stall-threshold", 0, "arm the stall watchdog on topic queues: waits past this become stall events (0 = off)")
	dataDir := flag.String("data-dir", "", "durable topics: write-ahead log directory (empty = in-memory only)")
	shmDir := flag.String("shm-dir", "", "shared-memory ingress: scan this directory for mmap segment files from local producers (empty = off)")
	shmScan := flag.Duration("shm-scan-interval", 0, "how often -shm-dir is scanned for new segments (0 = default 50ms)")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: off, interval, segment or always")
	fsyncInterval := flag.Duration("fsync-interval", 0, "background fsync period under -fsync interval (0 = default)")
	segmentBytes := flag.Int64("segment-bytes", 0, "WAL segment roll threshold in bytes (0 = default 64MiB)")
	retentionBytes := flag.Int64("retention-bytes", 0, "per-topic WAL size bound; oldest segments dropped past it (0 = unbounded)")
	retentionAge := flag.Duration("retention-age", 0, "per-topic WAL age bound; older sealed segments dropped (0 = unbounded)")
	clusterMode := flag.Bool("cluster", false, "cluster mode: partitioned topics with rendezvous placement and async replication (requires -node-id, -peers, -data-dir)")
	nodeID := flag.String("node-id", "", "this node's id in the peer list (cluster mode)")
	peersFlag := flag.String("peers", "", "static cluster members as id=host:port,... including this node (cluster mode)")
	partitions := flag.Uint("partitions", 8, "per-topic partition count (cluster mode)")
	replication := flag.Uint("replication", 2, "nodes holding each partition: one owner plus replicas (cluster mode)")
	pollInterval := flag.Duration("poll-interval", 0, "replication topic-discovery period (cluster mode, 0 = default)")
	flag.Parse()

	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}
	// The interval default only means anything with a WAL; without
	// -data-dir it would fail validation, so it applies only when
	// durable topics are on. An explicit -fsync without -data-dir still
	// reaches Validate and is rejected as the operator error it is.
	if *dataDir == "" {
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "fsync" })
		if !explicit {
			policy = wal.SyncOff
		}
	}
	var clusterCfg *cluster.Config
	if *clusterMode {
		peers, err := cluster.ParsePeers(*peersFlag)
		if err != nil {
			fatal(err)
		}
		clusterCfg = &cluster.Config{
			NodeID:      *nodeID,
			Peers:       peers,
			Partitions:  uint32(*partitions),
			Replication: uint32(*replication),
		}
	}
	opts := broker.Options{
		DeliverBatch:    *deliverBatch,
		TopicLanes:      *topicLanes,
		TopicLaneDepth:  *laneDepth,
		Instrument:      !*noInstrument,
		OpLatency:       *opLatency,
		StallThreshold:  *stallTh,
		DataDir:         *dataDir,
		Fsync:           policy,
		FsyncInterval:   *fsyncInterval,
		SegmentBytes:    *segmentBytes,
		RetentionBytes:  *retentionBytes,
		RetentionAge:    *retentionAge,
		ShmDir:          *shmDir,
		ShmScanInterval: *shmScan,
		Cluster:         clusterCfg,
	}
	// Validate explicitly before anything opens: a bad flag combination
	// is an operator error, reported as one typed message.
	if err := opts.Validate(); err != nil {
		fatal(err)
	}
	b, err := broker.New(opts)
	if err != nil {
		fatal(err)
	}
	if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "ffqd: durable topics in %s (fsync=%s)\n", *dataDir, policy)
	}
	if *shmDir != "" {
		fmt.Fprintf(os.Stderr, "ffqd: shared-memory ingress from %s\n", *shmDir)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ffqd: listening on %s\n", ln.Addr())

	var node *cluster.Node
	if clusterCfg != nil {
		node, err = cluster.StartNode(cluster.NodeOptions{
			Config: clusterCfg,
			OpenLog: func(topic string, part uint32) (cluster.LocalLog, error) {
				return b.PartitionLog(topic, part)
			},
			PollInterval: *pollInterval,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ffqd: "+format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ffqd: cluster node %s (%d peers, %d partitions, replication %d)\n",
			clusterCfg.NodeID, len(clusterCfg.Peers), clusterCfg.Partitions, clusterCfg.Replication)
	}

	if *metrics != "" {
		http.Handle("/metrics", expvarx.Handler())
		//ffq:detached metrics server serves until the process exits; ListenAndServe never returns cleanly
		go func() {
			// DefaultServeMux already carries expvar's /debug/vars.
			if err := http.ListenAndServe(*metrics, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ffqd: metrics:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "ffqd: metrics on http://%s/metrics\n", *metrics)
	}

	// Serve until a signal; then drain.
	serveErr := make(chan error, 1)
	go func() { serveErr <- b.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "ffqd: %v, draining (up to %s)\n", s, *drainTimeout)
		if node != nil {
			// Stop the replication followers first: they hold client
			// connections into peers and into this broker's data path.
			node.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := b.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ffqd: drain timed out:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "ffqd: drained")
	case err := <-serveErr:
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ffqd:", err)
	os.Exit(1)
}
