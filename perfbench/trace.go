package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"ffq/internal/wire"
)

// span is one timed call into a layer, made by the benchmark's own
// code: its name, start, end, the span that caused it (0 for none) and
// a counter read at the same boundary (bytes, items or queue depth).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

// tracer keeps spans in a fixed in-memory buffer and writes them out
// when the run ends. A nil *tracer records nothing, which is how the
// untraced runs pay no more than a nil check. Callers sample the
// frequent calls (every Nth Publish or socket write) so the buffer
// covers the whole run.
type tracer struct {
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

// begin opens a span and returns its id; 0 means not recorded.
func (t *tracer) begin(name string, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i] = span{Name: name, ID: uint64(i + 1), Parent: parent, Start: nowNS()}
	return uint64(i + 1)
}

// end closes span id with the counter read at its end.
func (t *tracer) end(id uint64, count int64) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = nowNS()
	s.Count = count
}

// selfTime summarizes one span name: how many were recorded, their
// total duration, and their self time (duration minus the part covered
// by child spans).
type selfTime struct {
	Count   int64   `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

// writeFile writes every closed span plus the per-name self-time
// summary to path and returns the summary. Call it after every
// goroutine that records spans has stopped.
func (t *tracer) writeFile(path string) (map[string]selfTime, error) {
	n := min(t.next.Load(), int64(len(t.spans)))
	spans := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.End != 0 {
			spans = append(spans, s)
		}
	}
	child := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	summary := map[string]selfTime{}
	for _, s := range spans {
		st := summary[s.Name]
		st.Count++
		st.TotalUS += float64(s.End-s.Start) / 1e3
		st.SelfUS += float64(s.End-s.Start-child[s.ID]) / 1e3
		summary[s.Name] = st
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	body, err := json.Marshal(map[string]any{
		"spans":     spans,
		"dropped":   t.dropped.Load(),
		"self_time": summary,
	})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return summary, os.WriteFile(path, body, 0o644)
}

// sockStats counts socket traffic on one side of the broker's
// connections in a traced run.
type sockStats struct {
	reads, writes, bytesIn, bytesOut, writeNS atomic.Int64
}

// tracedConn wraps a net.Conn in a traced run: it counts reads, writes
// and bytes into st, times writes, and records a span for every
// sampleEvery-th read and write. parent, when set, holds the span the
// goroutine driving this side of the connection has open (the Publish
// that flushed, the Recv that waited), so socket spans nest under it.
type tracedConn struct {
	net.Conn
	st          *sockStats
	tr          *tracer
	name        string
	parent      *atomic.Uint64
	sampleEvery int64
}

func (c *tracedConn) parentSpan() uint64 {
	if c.parent == nil {
		return 0
	}
	return c.parent.Load()
}

func (c *tracedConn) Read(b []byte) (int, error) {
	var id uint64
	if c.st.reads.Add(1)%c.sampleEvery == 0 {
		id = c.tr.begin(c.name+".read", c.parentSpan())
	}
	n, err := c.Conn.Read(b)
	c.st.bytesIn.Add(int64(n))
	c.tr.end(id, int64(n))
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	var id uint64
	if c.st.writes.Add(1)%c.sampleEvery == 0 {
		id = c.tr.begin(c.name+".write", c.parentSpan())
	}
	t0 := nowNS()
	n, err := c.Conn.Write(b)
	c.st.writeNS.Add(nowNS() - t0)
	c.st.bytesOut.Add(int64(n))
	c.tr.end(id, int64(n))
	return n, err
}

// faultConn drops the dropAt-th DELIVER frame the broker writes: the
// write reports success and the bytes never reach the consumer. The
// broker writes one whole frame per Write call, so the frame header is
// at the start of b. It exists to prove the checks catch a lost
// message.
type faultConn struct {
	net.Conn
	dropAt   int64
	delivers atomic.Int64
}

// frameHeader is wire's fixed frame prefix: uint32 length, type, flags.
const frameHeader = 6

func (c *faultConn) Write(b []byte) (int, error) {
	if len(b) >= frameHeader && b[4] == wire.TProduce && b[5]&wire.FlagDeliver != 0 {
		if c.delivers.Add(1) == c.dropAt {
			return len(b), nil
		}
	}
	return c.Conn.Write(b)
}
