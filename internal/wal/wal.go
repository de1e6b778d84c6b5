// Package wal is ffqd's per-topic write-ahead log: durable topics
// persist every PRODUCE batch to an append-only segment log before it
// is acknowledged, so a broker restart replays instead of forgetting.
//
// # Log layout
//
// One Log is one directory of fixed-roll segment files plus a cursor
// file:
//
//	<dir>/00000000000000000000.seg   records for offsets [0, n1)
//	<dir>/000000000000000n1.seg      records for offsets [n1, n2)
//	...                              (filename = decimal base offset)
//	<dir>/cursors                    consumer-group cursors
//
// Each record is one appended batch:
//
//	uint32  size   (bytes after this field: crc + base + batch body)
//	uint32  crc    (IEEE CRC32 of everything after this field)
//	uint64  base   (offset of the batch's first message)
//	batch          (wire batch body: uint32 count + count × (uint32 len | payload))
//
// The batch body is byte-identical to the payload section of a wire
// PRODUCE frame — internal/wire's EncodeBatch/ParseBatch are the
// single codec for both, so the disk hot path reuses the protocol's
// allocation-free encoder and fail-closed decoder.
//
// # Offsets and the index
//
// Offsets are assigned by Append under the log's lock: record base
// offsets strictly increase and file order equals offset order, which
// is the total order replay reproduces. The offset index is two-level:
// segment filenames map an offset to its file, and an in-memory
// per-segment record index (built at append time, rebuilt by the open
// scan) maps it to the byte position of its record, so a reader seeks
// without scanning.
//
// # Recovery invariants
//
// Open scans every segment record by record, CRC-checking each one,
// and truncates at the first record that is torn (size out of range,
// short body, CRC mismatch, base offset out of sequence) — everything
// after a torn record is unreachable and is discarded, including any
// later segment files. The result is always a consistent prefix of
// what was appended: a record is either fully present with a valid
// CRC or gone, never partially visible. Offsets never regress across
// a crash because the active segment file (whose name pins its base
// offset) is itself never deleted by retention.
//
// # Durability policies
//
// SyncOff never calls fsync (the OS flushes on its own schedule);
// SyncInterval runs a background fsync every Interval; SyncSegment
// syncs each segment as it rolls; SyncAlways syncs every append
// before it returns. Data written but not yet fsynced survives a
// process kill but not a machine crash — the recovery scan handles
// both identically.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"ffq/internal/obs"
	"ffq/internal/wire"
)

// SyncPolicy selects when the log fsyncs.
type SyncPolicy int

const (
	// SyncOff never fsyncs; the OS writes back on its own schedule.
	SyncOff SyncPolicy = iota
	// SyncInterval fsyncs dirty segments every Options.SyncInterval.
	SyncInterval
	// SyncSegment fsyncs each segment when it rolls (and at Seal).
	SyncSegment
	// SyncAlways fsyncs before every Append returns: an acknowledged
	// batch is on stable storage.
	SyncAlways
)

// ParseSyncPolicy maps the ffqd -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "off":
		return SyncOff, nil
	case "interval":
		return SyncInterval, nil
	case "segment":
		return SyncSegment, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (have off, interval, segment, always)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncOff:
		return "off"
	case SyncInterval:
		return "interval"
	case SyncSegment:
		return "segment"
	case SyncAlways:
		return "always"
	}
	return "unknown"
}

// Defaults for Options zero values.
const (
	DefaultSegmentBytes = 64 << 20
	DefaultSyncInterval = 100 * time.Millisecond
)

// Record framing constants.
const (
	// recHeader is the fixed prefix: size + crc + base.
	recHeader = 16
	// minRecSize is the smallest valid size field: crc excluded, so
	// base (8) + an empty batch body (4).
	minRecSize = 12 + 4
	// maxRecSize bounds the size field; a scanned value above it is a
	// torn record, not a huge batch (appends can never produce one:
	// the batch body is wire-bounded by MaxFrame).
	maxRecSize = wire.MaxFrame + 16
)

// Log errors.
var (
	// ErrSealed is returned by Append after Seal/Close.
	ErrSealed = errors.New("wal: log is sealed")
	// ErrCorrupt is returned by readers that hit an invalid record in
	// the retained log body (the open scan repairs only the tail).
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrOffsetGap is returned by AppendAt when the batch's base offset
	// is not the log's next offset: the follower missed records (or
	// replayed old ones) and must resync rather than write a hole.
	ErrOffsetGap = errors.New("wal: append base is not the next offset")
)

// Options configures a Log.
type Options struct {
	// SegmentBytes is the roll threshold: a record that would push the
	// active segment past it starts a new one. 0 means
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Sync selects the fsync policy.
	Sync SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval.
	// 0 means DefaultSyncInterval.
	SyncInterval time.Duration
	// RetentionBytes bounds the log's total size: rolling a segment
	// drops the oldest sealed segments while the total exceeds it.
	// 0 means unbounded. The active segment is never dropped.
	RetentionBytes int64
	// RetentionAge drops sealed segments whose newest record is older
	// than this, checked at each roll and at EnforceRetention. 0 means
	// unbounded.
	RetentionAge time.Duration
	// FsyncHist, when non-nil, records each fsync's latency in
	// nanoseconds (exported by the broker as ffqd_wal_fsync_ns).
	FsyncHist *obs.LatencyHist
}

// recIdx is one offset-index entry: the record holding offset `off`
// starts at byte `pos` of its segment file.
type recIdx struct {
	off uint64
	pos int64
}

// segment is one sealed (non-active) segment file.
type segment struct {
	base, end uint64 // offset range [base, end)
	size      int64
	sealedAt  time.Time // roll time; age retention measures from here
	index     []recIdx
}

// Stats is a point-in-time summary of a Log, for metrics.
type Stats struct {
	// Oldest is the oldest retained offset, Next the next offset to be
	// assigned; Next-Oldest messages are readable.
	Oldest, Next uint64
	// Bytes is the on-disk size of all retained segments.
	Bytes int64
	// Segments counts retained segment files (including the active one).
	Segments int
}

// Log is one topic's append-only segment log. Append/Seal/Close and
// the read-side lookups are safe for concurrent use; each Reader is
// single-consumer.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	active *os.File
	// activeBase/activeSize/activeIdx describe the segment being
	// appended to; segs holds the sealed ones in offset order.
	activeBase uint64
	activeSize int64
	activeIdx  []recIdx
	segs       []segment
	next       uint64
	oldest     uint64
	total      int64 // on-disk bytes, sealed + active
	dirty      bool  // bytes written since the last fsync
	sealed     bool
	closed     bool
	// notify is made by the first WaitAppend that must park and closed
	// (then dropped) by the next append, reset or Seal, so head followers
	// wait without polling and an append nobody waits for pays nothing.
	notify chan struct{}
	enc    []byte // record scratch buffer

	stopSync chan struct{}
	syncWG   sync.WaitGroup
}

// Open opens (creating or recovering) the log directory. Recovery
// scans every segment, truncates a torn tail, and discards anything
// beyond it; see the package comment for the invariants.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		stopSync: make(chan struct{}),
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.syncWG.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// segPath returns the segment filename for a base offset.
func (l *Log) segPath(base uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%020d.seg", base))
}

// recover builds the in-memory state from the directory: list the
// segment files, scan them in offset order, truncate the torn tail,
// and open the last one for appending.
func (l *Log) recover() error {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var bases []uint64
	for _, e := range ents {
		name := e.Name()
		if filepath.Ext(name) != ".seg" {
			continue
		}
		base, err := strconv.ParseUint(name[:len(name)-4], 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	if len(bases) == 0 {
		f, err := os.OpenFile(l.segPath(0), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		l.active = f
		return nil
	}

	l.oldest = bases[0]
	expect := bases[0]
	scanned := false
	for i, base := range bases {
		if base != expect {
			// A gap in the offset chain: everything from here on is
			// unreachable by replay. Treat it like a torn tail.
			for _, b := range bases[i:] {
				os.Remove(l.segPath(b))
			}
			break
		}
		end, size, index, intact, err := scanSegment(l.segPath(base), base)
		if err != nil {
			return err
		}
		if scanned {
			// The previous candidate is not the last file: seal it.
			l.segs = append(l.segs, segment{
				base: l.activeBase, end: l.next,
				size: l.activeSize, sealedAt: time.Now(), index: l.activeIdx,
			})
		}
		l.activeBase, l.next = base, end
		l.activeSize = size
		l.activeIdx = index
		l.total += size
		scanned = true
		if !intact {
			// Torn record: truncate this segment to its valid prefix
			// and drop every later segment.
			if err := os.Truncate(l.segPath(base), size); err != nil {
				return err
			}
			for _, b := range bases[i+1:] {
				os.Remove(l.segPath(b))
			}
			break
		}
		expect = end
	}
	return l.openActive()
}

// openActive opens the last scanned segment for appending.
func (l *Log) openActive() error {
	f, err := os.OpenFile(l.segPath(l.activeBase), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(l.activeSize, 0); err != nil {
		f.Close()
		return err
	}
	l.active = f
	return nil
}

// scanSegment walks one segment file record by record, CRC-checking
// each, and returns the end offset, valid byte prefix and record
// index. intact=false means a torn record was found at `size`.
func scanSegment(path string, base uint64) (end uint64, size int64, index []recIdx, intact bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, false, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, nil, false, err
	}
	fileSize := info.Size()

	var hdr [recHeader]byte
	var body []byte
	end = base
	for size < fileSize {
		if fileSize-size < recHeader {
			return end, size, index, false, nil
		}
		if _, err := f.ReadAt(hdr[:], size); err != nil {
			return end, size, index, false, nil
		}
		recSize := int64(binary.BigEndian.Uint32(hdr[0:]))
		if recSize < minRecSize || recSize > maxRecSize || recSize > fileSize-size-4 {
			return end, size, index, false, nil
		}
		recBase := binary.BigEndian.Uint64(hdr[8:])
		if recBase != end {
			return end, size, index, false, nil
		}
		bodyLen := int(recSize) - 12 // batch body after crc+base
		if cap(body) < bodyLen {
			body = make([]byte, bodyLen)
		}
		body = body[:bodyLen]
		if _, err := f.ReadAt(body, size+recHeader); err != nil {
			return end, size, index, false, nil
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[8:]) // base
		crc.Write(body)
		if crc.Sum32() != binary.BigEndian.Uint32(hdr[4:]) {
			return end, size, index, false, nil
		}
		b, err := wire.ParseBatch(body)
		if err != nil || b.N == 0 {
			return end, size, index, false, nil
		}
		index = append(index, recIdx{off: end, pos: size})
		end += uint64(b.N)
		size += 4 + recSize
	}
	return end, size, index, true, nil
}

// Append writes one batch as a single record, assigns its offsets and
// returns the first one. The write and the offset assignment happen
// under one lock, so file order is offset order even with concurrent
// appenders. The returned base is the offset of payloads[0];
// payloads[i] gets base+i.
func (l *Log) Append(payloads [][]byte) (base uint64, err error) {
	if len(payloads) == 0 {
		l.mu.Lock()
		base = l.next
		l.mu.Unlock()
		return base, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return 0, ErrSealed
	}
	return l.appendLocked(payloads)
}

// AppendAt writes one batch whose first message must land exactly at
// offset base — the replication follower's append: offsets are
// assigned by the partition owner and reproduced here, never invented.
// A base behind or ahead of the log's next offset is ErrOffsetGap; the
// caller resyncs instead of creating a hole or a duplicate.
func (l *Log) AppendAt(base uint64, payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return ErrSealed
	}
	if base != l.next {
		return fmt.Errorf("%w: log next %d, batch base %d", ErrOffsetGap, l.next, base)
	}
	_, err := l.appendLocked(payloads)
	return err
}

// appendLocked encodes and writes one batch record at l.next. Callers
// hold l.mu and have checked sealed.
func (l *Log) appendLocked(payloads [][]byte) (base uint64, err error) {
	bodyLen := wire.BatchSize(payloads)
	recLen := recHeader + bodyLen
	if cap(l.enc) < recLen {
		l.enc = make([]byte, recLen)
	}
	rec := l.enc[:recLen]
	binary.BigEndian.PutUint32(rec[0:], uint32(12+bodyLen))
	binary.BigEndian.PutUint64(rec[8:], l.next)
	wire.EncodeBatch(rec[recHeader:], payloads)
	binary.BigEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))

	if l.activeSize > 0 && l.activeSize+int64(recLen) > l.opts.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := l.active.Write(rec); err != nil {
		return 0, err
	}
	base = l.next
	l.activeIdx = append(l.activeIdx, recIdx{off: base, pos: l.activeSize})
	l.activeSize += int64(recLen)
	l.total += int64(recLen)
	l.next += uint64(len(payloads))
	l.dirty = true

	if l.opts.Sync == SyncAlways {
		if err := l.fsyncLocked(); err != nil {
			return 0, err
		}
	}
	l.wakeLocked()
	return base, nil
}

// rollLocked seals the active segment and starts a new one at the
// current next offset, then enforces retention. Callers hold l.mu.
func (l *Log) rollLocked() error {
	if l.opts.Sync == SyncSegment || l.opts.Sync == SyncAlways {
		if err := l.fsyncLocked(); err != nil {
			return err
		}
	}
	// Open the successor before sealing the current segment: if the
	// open fails, l.active must still be the live, open handle —
	// closing first would wedge the log on a closed file and leave the
	// sealed segment double-accounted in l.segs.
	f, err := os.OpenFile(l.segPath(l.next), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		f.Close()
		os.Remove(l.segPath(l.next))
		return err
	}
	l.segs = append(l.segs, segment{
		base: l.activeBase, end: l.next,
		size: l.activeSize, sealedAt: time.Now(), index: l.activeIdx,
	})
	l.active = f
	l.activeBase = l.next
	l.activeSize = 0
	l.activeIdx = nil
	l.dirty = false
	l.enforceRetentionLocked()
	return nil
}

// fsyncLocked syncs the active segment, timing it into FsyncHist.
// Callers hold l.mu.
func (l *Log) fsyncLocked() error {
	start := time.Now()
	err := l.active.Sync()
	if h := l.opts.FsyncHist; h != nil {
		h.Record(time.Since(start).Nanoseconds())
	}
	if err == nil {
		l.dirty = false
	}
	return err
}

// enforceRetentionLocked drops the oldest sealed segments that exceed
// the size or age bounds. The active segment survives unconditionally:
// its filename pins the offset chain across restarts.
func (l *Log) enforceRetentionLocked() {
	for len(l.segs) > 0 {
		s := l.segs[0]
		drop := false
		if l.opts.RetentionBytes > 0 && l.total > l.opts.RetentionBytes {
			drop = true
		}
		if l.opts.RetentionAge > 0 && time.Since(s.sealedAt) > l.opts.RetentionAge {
			drop = true
		}
		if !drop {
			return
		}
		os.Remove(l.segPath(s.base))
		l.total -= s.size
		l.oldest = s.end
		l.segs = l.segs[1:]
	}
}

// EnforceRetention applies the retention bounds now (age-based
// retention otherwise only runs when a segment rolls).
func (l *Log) EnforceRetention() {
	l.mu.Lock()
	l.enforceRetentionLocked()
	l.mu.Unlock()
}

// ResetTo discards every retained record and restarts the offset chain
// at base — the replication follower's resync after the owner's
// retention overtook it (the records below base are gone at the source,
// so a contiguous local copy can only start there). The caller must
// ensure no concurrent reader depends on the discarded records; open
// Readers hold their own file handles and will surface read errors.
func (l *Log) ResetTo(base uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return ErrSealed
	}
	for _, s := range l.segs {
		os.Remove(l.segPath(s.base))
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	os.Remove(l.segPath(l.activeBase))
	f, err := os.OpenFile(l.segPath(base), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	l.active = f
	l.activeBase = base
	l.activeSize = 0
	l.activeIdx = nil
	l.segs = nil
	l.next = base
	l.oldest = base
	l.total = 0
	l.dirty = false
	l.wakeLocked()
	return nil
}

// syncLoop is the SyncInterval policy's background fsync.
func (l *Log) syncLoop() {
	defer l.syncWG.Done()
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && !l.closed {
				l.fsyncLocked() // best effort; Append surfaces hard errors
			}
			l.mu.Unlock()
		}
	}
}

// Seal ends the append phase: no more Appends succeed, the active
// segment is flushed to stable storage, and head followers are woken
// so they can finish at the current end. Readers keep working after
// Seal. Idempotent.
func (l *Log) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return nil
	}
	l.sealed = true
	var err error
	if l.active != nil {
		err = l.fsyncLocked()
	}
	l.wakeLocked()
	return err
}

// Close seals the log and releases the append-side file handle. Open
// Readers hold their own handles and keep working.
func (l *Log) Close() error {
	err := l.Seal()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return err
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stopSync)
	l.syncWG.Wait()
	l.mu.Lock()
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	l.mu.Unlock()
	return err
}

// Sync fsyncs the active segment now, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	return l.fsyncLocked()
}

// NextOffset returns the next offset Append will assign.
func (l *Log) NextOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// OldestOffset returns the oldest retained offset.
func (l *Log) OldestOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oldest
}

// Stats returns a point-in-time summary for metrics.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Oldest:   l.oldest,
		Next:     l.next,
		Bytes:    l.total,
		Segments: len(l.segs) + 1,
	}
}

// Sealed reports whether the log has been sealed (no more appends).
func (l *Log) Sealed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed
}

// WaitAppend returns a channel that is closed once the log grows past
// off or is sealed — the head follower's park/wake primitive. When the
// condition already holds, the returned channel is already closed.
func (l *Log) WaitAppend(off uint64) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.next > off || l.sealed {
		return closedChan
	}
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return l.notify
}

// wakeLocked releases every WaitAppend parked on the current notify
// channel. Callers hold l.mu.
func (l *Log) wakeLocked() {
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()
