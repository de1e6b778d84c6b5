package broker

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ffq/internal/shm"
	"ffq/internal/wire"
)

// Shared-memory ingress: local producers that want to skip the TCP
// stack entirely create mmap segments (internal/shm) under
// Options.ShmDir, one per producer. A scanner goroutine notices new
// *.ffq files and starts a pump per segment:
//
//	producer process ──mmap SPSC──▶ shm pump ──topic.ingest──▶ topic
//
// which is the same shape as a connection's ingress lane — the segment
// replaces the reader+SPSC pair, and the pump feeds the topic through
// the same topic.ingest as a connection pump. The pump removes a
// segment's file once its producer closed it and it is drained, or
// once the producer died (heartbeat PID); a broker shutdown leaves
// segments in place for the next run.

// DefaultShmScanInterval is how often the ShmDir scanner looks for new
// segment files.
const DefaultShmScanInterval = 50 * time.Millisecond

// shmDrainMax bounds the payloads a pump copies out of its segment per
// drain round (and so the EnqueueBatch size it feeds the topic lane).
const shmDrainMax = 256

// shmState tracks the segments being served. Quarantined paths failed
// to attach (corrupt headers and the like); they are skipped until the
// file is replaced, so one bad file cannot hot-loop the scanner.
type shmState struct {
	mu          sync.Mutex
	serving     map[string]struct{}
	quarantined map[string]struct{}
}

// scanShmDir starts pumps for segment files not already being served.
func (b *Broker) scanShmDir() {
	entries, err := os.ReadDir(b.opts.ShmDir)
	if err != nil {
		return // transient or misconfigured; next tick retries
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ffq") {
			continue
		}
		path := filepath.Join(b.opts.ShmDir, e.Name())
		b.shm.mu.Lock()
		_, busy := b.shm.serving[path]
		_, bad := b.shm.quarantined[path]
		if !busy && !bad {
			b.shm.serving[path] = struct{}{}
		}
		b.shm.mu.Unlock()
		if busy || bad {
			continue
		}
		c, err := shm.Attach(path)
		if err != nil {
			b.m.ShmAttachErrors.Add(1)
			b.shm.mu.Lock()
			delete(b.shm.serving, path)
			// ErrBusy means someone else holds the consumer end; that
			// can resolve, so retry it. Anything else is fail-closed
			// header rejection — quarantine the file.
			if err != shm.ErrBusy {
				b.shm.quarantined[path] = struct{}{}
			}
			b.shm.mu.Unlock()
			continue
		}
		b.m.ShmSegments.Add(1)
		b.shmWG.Add(1)
		go b.shmServe(path, c)
	}
}

// shmScanLoop polls ShmDir for new segments until Shutdown.
func (b *Broker) shmScanLoop() {
	defer b.shmWG.Done()
	t := time.NewTicker(b.opts.ShmScanInterval)
	defer t.Stop()
	b.scanShmDir()
	for {
		select {
		case <-b.draining:
			return
		case <-t.C:
			b.scanShmDir()
		}
	}
}

// shmServe pumps one segment into its topic until the segment ends or
// the broker drains. It holds an exclusive producer lane on the topic
// and feeds every drained batch through topic.ingest.
func (b *Broker) shmServe(path string, c *shm.Consumer) {
	defer b.shmWG.Done()
	removeFile := false
	defer func() {
		c.Detach()
		if removeFile {
			os.Remove(path)
		}
		b.m.ShmSegments.Add(-1)
		b.shm.mu.Lock()
		delete(b.shm.serving, path)
		b.shm.mu.Unlock()
	}()

	t, err := b.getTopic(c.Topic(), wire.NoPartition)
	if err != nil {
		return // only fails during shutdown; leave the segment for the next run
	}
	h, _ := t.q.AcquireProducer()
	if h != nil {
		defer h.Release()
	}

	payloads := make([][]byte, 0, shmDrainMax)
	var scratch []msg
	idle := 0
	finishing := false // Close/death observed; the next empty drain ends the segment
	for {
		payloads = payloads[:0]
		payloads, err = c.TryDrain(payloads, shmDrainMax)
		if err != nil {
			// Corrupted underneath us; stop serving, keep the file for
			// inspection and quarantine it against re-attach.
			b.m.ShmAttachErrors.Add(1)
			b.shm.mu.Lock()
			b.shm.quarantined[path] = struct{}{}
			b.shm.mu.Unlock()
			return
		}
		if len(payloads) > 0 {
			idle = 0
			var stamp int64
			if t.lat != nil {
				stamp = time.Now().UnixNano()
			}
			if scratch, err = t.ingest(h, payloads, stamp, scratch); err != nil {
				return // disk failure: stop unacknowledged, like a conn pump
			}
			var bytes int64
			for _, pl := range payloads {
				bytes += int64(len(pl))
			}
			b.m.ShmMsgs.Add(int64(len(payloads)))
			b.m.ShmBytes.Add(bytes)
			continue
		}
		// Empty. Decide between exit conditions and a short idle sleep.
		select {
		case <-b.draining:
			return // leave the segment; unconsumed values survive the restart
		default:
		}
		if finishing {
			// This drain came up empty after Close/death was observed,
			// so every final publish racing with it has already gone
			// through ingest above; the segment is garbage.
			removeFile = true
			return
		}
		if c.CloseRequested() || !c.ProducerAlive() {
			// Producer is done (or dead). Publishes precede the Close
			// store, so looping back for one more drain — through
			// ingest, never consumed here — closes the race with its
			// final publishes.
			finishing = true
			continue
		}
		idle++
		if idle > 1 {
			time.Sleep(time.Millisecond)
		}
	}
}

// ShmTopicDepths reports the approximate unconsumed depth of every
// served segment, keyed by topic (summed over a topic's segments).
// Metrics collection uses it for the ffqd_shm_depth gauge.
func (b *Broker) ShmTopicDepths() map[string]int64 {
	// Depth needs the Consumer, but pumps own their consumers
	// exclusively; instead of sharing them, read the counters straight
	// from the mapped headers of the files being served.
	b.shm.mu.Lock()
	paths := make([]string, 0, len(b.shm.serving))
	for p := range b.shm.serving {
		paths = append(paths, p)
	}
	b.shm.mu.Unlock()
	out := map[string]int64{}
	for _, p := range paths {
		topic, depth, err := shm.PeekDepth(p)
		if err != nil {
			continue
		}
		out[topic] += depth
	}
	return out
}

// initShm wires the shared-memory ingress into a new broker; called
// from New when Options.ShmDir is set.
func (b *Broker) initShm() {
	b.shm.serving = map[string]struct{}{}
	b.shm.quarantined = map[string]struct{}{}
	b.shmWG.Add(1)
	go b.shmScanLoop()
}
