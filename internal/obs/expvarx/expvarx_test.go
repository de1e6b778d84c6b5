package expvarx

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ffq/internal/obs"
)

// register wires a throwaway queue and cleans it up with the test.
func register(t *testing.T, name string, r *obs.Recorder, length, capacity int) {
	t.Helper()
	err := Register(name, QueueInfo{
		Stats: r.Snapshot,
		Len:   func() int { return length },
		Cap:   capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { Unregister(name) })
}

func TestRegisterValidation(t *testing.T) {
	if err := Register("bad", QueueInfo{}); err == nil {
		t.Fatal("Register accepted a QueueInfo without Stats")
	}
	r := obs.NewRecorder()
	register(t, "dup", r, 0, 0)
	if err := Register("dup", QueueInfo{Stats: r.Snapshot}); err == nil {
		t.Fatal("Register accepted a duplicate name")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := obs.NewRecorder()
	r.Enqueue()
	r.Enqueue()
	r.Dequeue()
	r.GapCreated()
	r.ObserveWait(100 * time.Nanosecond)
	r.ObserveWait(time.Millisecond)
	register(t, "testq", r, 7, 1024)

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE ffq_enqueues_total counter",
		`ffq_enqueues_total{queue="testq"} 2`,
		`ffq_dequeues_total{queue="testq"} 1`,
		`ffq_gaps_created_total{queue="testq"} 1`,
		`ffq_queue_depth{queue="testq"} 7`,
		`ffq_queue_capacity{queue="testq"} 1024`,
		"# TYPE ffq_wait_ns histogram",
		`ffq_wait_ns_bucket{queue="testq",le="+Inf"} 2`,
		`ffq_wait_ns_count{queue="testq"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\nbody:\n%s", want, body)
		}
	}

	// Histogram buckets must be cumulative and end at the total count.
	if !strings.Contains(body, `ffq_wait_ns_sum{queue="testq"} 1000100`) {
		t.Errorf("wait sum wrong\nbody:\n%s", body)
	}
	var prev int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `ffq_wait_ns_bucket{queue="testq"`) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}
	if prev != 2 {
		t.Fatalf("final bucket %d, want 2", prev)
	}
}

// TestBatchExposition: the batch-size histogram must render in valid
// exposition format with cumulative buckets.
func TestBatchExposition(t *testing.T) {
	r := obs.NewRecorder()
	r.ObserveBatch(1)
	r.ObserveBatch(8)
	r.ObserveBatch(8)
	r.ObserveBatch(1 << 20) // clamped: must appear only under +Inf
	if err := Register("batchq", QueueInfo{Stats: r.Snapshot, Len: func() int { return 0 }}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { Unregister("batchq") })

	body := Exposition()
	for _, want := range []string{
		"# TYPE ffq_batch_items histogram",
		`ffq_batch_items_bucket{queue="batchq",le="1"} 1`,
		`ffq_batch_items_bucket{queue="batchq",le="8"} 3`,
		`ffq_batch_items_bucket{queue="batchq",le="16384"} 3`, // clamp stays out of finite buckets
		`ffq_batch_items_bucket{queue="batchq",le="+Inf"} 4`,
		`ffq_batch_items_sum{queue="batchq"} 1048593`,
		`ffq_batch_items_count{queue="batchq"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\nbody:\n%s", want, body)
		}
	}

	// Batch buckets must be cumulative.
	var prev int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `ffq_batch_items_bucket{queue="batchq"`) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("batch buckets not cumulative at %q", line)
		}
		prev = v
	}
	if prev != 4 {
		t.Fatalf("final batch bucket %d, want 4", prev)
	}
}

func TestExpvarPublishing(t *testing.T) {
	r := obs.NewRecorder()
	r.Enqueue()
	register(t, "expq", r, 3, 16)

	v := expvar.Get("ffq")
	if v == nil {
		t.Fatal("ffq expvar not published")
	}
	var m map[string]struct {
		Stats obs.Stats `json:"stats"`
		Len   int       `json:"len"`
		Cap   int       `json:"cap"`
	}
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("ffq expvar is not valid JSON: %v\n%s", err, v.String())
	}
	q, ok := m["expq"]
	if !ok {
		t.Fatalf("expq missing from expvar map: %v", m)
	}
	if q.Stats.Enqueues != 1 || q.Len != 3 || q.Cap != 16 {
		t.Fatalf("expvar snapshot wrong: %+v", q)
	}

	// Unregistered queues disappear from subsequent snapshots.
	Unregister("expq")
	if strings.Contains(expvar.Get("ffq").String(), "expq") {
		t.Fatal("unregistered queue still exposed")
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := escapeLabel(`a"b\c` + "\n"); got != `a\"b\\c\n` {
		t.Fatalf("escapeLabel = %q", got)
	}
}
