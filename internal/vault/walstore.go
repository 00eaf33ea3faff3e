package vault

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clickpass/internal/par"
	"clickpass/internal/passpoints"
)

// SyncPolicy selects when the durable store fsyncs a shard's log after
// appending a mutation. It is the knob that trades acked-write
// durability against write latency; see the package's PERFORMANCE.md
// "Durable vault" table for measured costs.
type SyncPolicy int

// Sync policies, strongest first.
const (
	// SyncAlways fsyncs after every append: an acked mutation survives
	// both a process kill and an OS crash. Concurrent appends to the
	// same shard coalesce into shared group-commit fsyncs, so the
	// per-mutation cost amortizes across writers. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs dirty shards on a background timer
	// (DurableOptions.SyncEvery). An acked mutation survives a process
	// kill immediately (the write() has happened) but may be lost to an
	// OS crash inside the sync window.
	SyncInterval
	// SyncNever leaves syncing to the OS page cache (and Close). Acked
	// mutations survive a process kill but not an OS crash.
	SyncNever
)

// String returns the policy's flag spelling ("always", "interval",
// "never").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag spellings accepted by
// pwserver: "always", "interval", "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("vault: unknown sync policy %q (want always, interval or never)", s)
	}
}

// DefaultCompactRatio is the garbage-to-live threshold at which a
// shard's log is rewritten: compaction triggers when a log holds more
// than ratio× as many dead records (overwritten, deleted, stale
// lockout counters) as live entries.
const DefaultCompactRatio = 2.0

// compactMinEntries is the floor below which a shard log is never
// compacted — rewriting a hundred-record file buys nothing and the
// ratio test is noisy at small counts.
const compactMinEntries = 256

// DefaultCheckpointMin is the minimum number of records appended
// since a shard's last checkpoint (or compaction) before the periodic
// checkpointer bothers snapshotting it again; selected when
// DurableOptions.CheckpointMin <= 0.
const DefaultCheckpointMin = 256

// ErrShardFailed marks mutations refused by a fail-stopped shard. A
// shard fail-stops when an fsync of its log fails, or when the
// rollback after a failed append cannot restore the committed offset:
// after a failed fsync the kernel may drop the dirty pages AND clear
// the error state, so a later fsync can report success over lost
// writes (the "fsyncgate" pattern) — no subsequent fsync result can
// prove an append's durability. The shard keeps serving reads (its
// acked state is intact in memory) but refuses every further mutation
// until the process restarts and replays the log.
var ErrShardFailed = errors.New("vault: shard fail-stopped after a log write or sync error")

// DurableOptions configures OpenDurable. The zero value selects
// DefaultShards, SyncAlways, and DefaultCompactRatio with the
// background compactor enabled and periodic checkpoints disabled.
type DurableOptions struct {
	// Shards is the log/lock partition count; <= 0 selects
	// DefaultShards. The count is fixed when the directory is created
	// and recorded in its meta.json: a record's log is chosen by
	// hash(user) mod Shards, so changing the modulus under an existing
	// directory would strand records in the wrong logs. Reopening with
	// a different value silently keeps the on-disk count (check
	// Shards() for the effective value); to re-partition, SaveTo a
	// JSON snapshot and ImportJSON it into a fresh directory.
	Shards int
	// Sync is the fsync policy for appended mutations.
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval;
	// <= 0 selects 100ms. Ignored under other policies.
	SyncEvery time.Duration
	// CompactRatio overrides DefaultCompactRatio; <= 0 selects the
	// default.
	CompactRatio float64
	// NoAutoCompact disables the background compactor; Compact and
	// CompactShard remain available for manual use (tests, tooling).
	NoAutoCompact bool
	// CheckpointEvery is the period of the background checkpointer:
	// every tick it snapshots each shard with at least CheckpointMin
	// new records into a canonical per-shard checkpoint file and
	// truncates the log to the post-snapshot tail, so startup replay
	// is O(delta since checkpoint) instead of O(total history).
	// <= 0 disables background checkpoints; Checkpoint and
	// CheckpointShard remain available for manual use.
	CheckpointEvery time.Duration
	// CheckpointMin is the minimum number of records appended since a
	// shard's last checkpoint before the periodic checkpointer
	// re-snapshots it; <= 0 selects DefaultCheckpointMin. Ignored by
	// explicit CheckpointShard calls, which snapshot any non-empty
	// delta.
	CheckpointMin int
	// CheckpointMinBytes, when > 0, additionally triggers the periodic
	// checkpointer once a shard has appended at least this many log
	// bytes since its last checkpoint, even if the record count is
	// still below CheckpointMin — so a workload of few, large records
	// cannot defer rotation (and therefore replay cost) indefinitely.
	// 0 keeps the record-count schedule alone.
	CheckpointMinBytes int64
	// CommitWindow, when > 0 under SyncAlways, makes each group-commit
	// batch leader wait this long before flushing, so writers arriving
	// inside the window join the batch instead of forming the next one
	// — deeper batches (fewer fsyncs per mutation) at moderate load,
	// bought with up to CommitWindow of added ack latency per write.
	// 0 (the default) flushes immediately: the batch is whatever
	// queued during the previous fsync, exactly the pre-window
	// behavior.
	CommitWindow time.Duration
}

// Durable is the crash-safe Store: the fnv-sharded in-memory map of
// Sharded, with one append-only log file per shard as the source of
// truth. Every mutation — Put, Replace, Delete, and lockout-counter
// writes through the LockoutStore extension — appends one
// length-prefixed, CRC32-checksummed record to its shard's log before
// the call returns, so an acked write survives a crash (exactly how
// durably is the SyncPolicy's call). OpenDurable replays the shard
// logs in parallel (they share nothing) to rebuild memory, truncating
// each log at the first torn or corrupt record: everything acked
// before the tear is recovered, the torn tail is dropped.
//
// Under SyncAlways, concurrent appends to one shard group-commit:
// each writer stages its encoded record under the shard lock, then
// the writers coalesce into batches — one leader writes and fsyncs
// the whole staged buffer — so N concurrent mutations cost one write
// and one fsync, not N of each. Every waiter acks only if the shared
// fsync succeeded, and a failed fsync fails (and rolls back) the
// whole batch. A failed fsync also fail-stops the shard (see
// ErrShardFailed): durability claims after a kernel writeback error
// are unverifiable, so the shard refuses further mutations rather
// than ack them.
//
// Note one visibility caveat of group commit: a mutation becomes
// readable (Get/Users/Snapshot) the moment its record is written,
// microseconds before the shared fsync that acks it. If that fsync
// fails, the batch's map updates are rolled back and the shard
// fail-stops — a reader can briefly observe a mutation that is then
// refused, but never one that silently survives un-acked.
//
// Logs only grow, so a background compactor (or an explicit Compact)
// rewrites a shard's log from its live map once dead records outgrow
// CompactRatio× the live set, and a background checkpointer (or an
// explicit Checkpoint) snapshots each shard's state into a canonical
// checkpoint file and truncates the log to the tail appended since —
// bounding startup replay by the checkpoint cadence instead of the
// store's age. SaveTo still exports the canonical JSON snapshot
// Sharded reads and writes, and ImportJSON loads one, so a
// deployment can migrate between backends in either direction.
type Durable struct {
	dir    string
	opts   DurableOptions
	shards []walShard
	closed atomic.Bool

	// openFile opens a shard log; tests swap it to inject failing
	// files (see walFile).
	openFile func(path string) (walFile, error)
	// testCrashAfterCkptRename, when non-nil, runs between a
	// checkpoint file's rename and the log rotation that follows —
	// the crash window recovery must tolerate. Tests use it to copy
	// the directory mid-protocol.
	testCrashAfterCkptRename func(shard int)
	// testCrashAfterCompactRename runs between a compacted log's
	// rename and the removal of the now-stale checkpoint file.
	testCrashAfterCompactRename func(shard int)

	kick chan int      // compactor nudge, carries a shard index
	stop chan struct{} // closes to stop background goroutines
	bg   sync.WaitGroup

	// metaMu serializes meta.json rewrites (epoch bumps); epoch caches
	// the persisted value for lock-free reads.
	metaMu sync.Mutex
	epoch  atomic.Uint64
	// replWait, when set, blocks a mutation's ack until the configured
	// replica acknowledgement covers (shard, seq) — the quorum hook
	// installed by SetReplHooks. Called without any shard lock held;
	// its error fails the writer but never the shard (the record is
	// locally durable, see ReplHooks).
	replWait atomic.Pointer[func(shard int, seq uint64) error]
	// kvWatch, when set, observes side-table keys changed by the
	// REPLICATED apply paths (ApplyReplFrames, InstallShardSnapshot) —
	// how a follower's soft state (the session key set) learns of
	// primary writes without polling. Local SetKV calls do not fire it:
	// the local writer already knows the value, and firing under the
	// writer's own locks would invite deadlock. Fired after all shard
	// locks are released. See SetKVWatch.
	kvWatch atomic.Pointer[func(key string, val []byte)]
}

// walFile is the slice of *os.File the shard log code uses, split out
// as an interface so tests can inject files whose writes, syncs,
// truncates, or seeks fail on demand (the rollback and fsyncgate
// regression tests). Production code always uses *os.File.
type walFile interface {
	io.Reader
	io.Writer
	io.Seeker
	io.ReaderAt
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
	// Close releases the file.
	Close() error
	// Name returns the file's path for error messages.
	Name() string
}

// defaultOpenFile opens a real log file read-write, creating it if
// missing.
func defaultOpenFile(path string) (walFile, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
}

// walPending is one record written to a shard's log but not yet
// covered by a successful fsync: the bookkeeping group commit needs
// to ack (drop the undo) or fail (run it) a whole batch at once.
type walPending struct {
	end  int64  // log length once this record was written
	undo func() // reverts the record's eager map application
}

// walShard is one log-backed partition. The mutex covers the maps,
// the file, and all offsets; the commit condvar (sharing the mutex)
// coordinates group commit: under SyncAlways writers stage their
// encoded records in wbuf under the lock, then wait on the condvar
// while one of them — the batch leader — writes and fsyncs the whole
// buffer outside the lock and wakes everyone with the shared result.
// Staging in memory rather than writing through matters beyond the
// saved syscalls: an fsync racing concurrent appends to the same
// inode degrades badly on journaling filesystems (the flush chases
// freshly dirtied pages), so exactly one goroutine — the leader —
// ever touches the file while a sync is possible.
type walShard struct {
	mu       sync.Mutex
	commit   sync.Cond // group-commit wakeups; commit.L == &mu
	records  map[string]*passpoints.Record
	lockouts map[string]int
	// kv holds the shard's slice of the small durable key/value side
	// table (see KVStore): opaque blobs keyed by FNV32a(key) exactly
	// like records, logged, checkpointed, compacted, and replicated by
	// the same machinery. Session signing keys and revocation
	// watermarks live here.
	kv       map[string][]byte
	f        walFile
	path     string
	ckptPath string
	// Three log lengths, always off <= wsize <= lsize:
	// off is the committed length — every byte below it belongs to an
	// acked record (and, under SyncAlways, has been fsynced); wsize
	// is the length written to the file; lsize is the logical length
	// including records still staged in wbuf. Outside an in-flight
	// group commit all three are equal.
	off   int64
	wsize int64
	lsize int64
	wbuf  []byte // staged frames awaiting the next batch flush
	// entries counts records in the log since its last rewrite;
	// sinceCkpt counts records appended since the last checkpoint or
	// compaction (the replay debt a new checkpoint would clear).
	entries   int
	sinceCkpt int
	dirty     bool   // has unsynced appends (SyncInterval bookkeeping)
	dirtyGen  uint64 // bumped per unsynced append, so a sync landing
	// mid-append cannot clear dirty for bytes it did not cover
	logID   uint64 // checkpoint marker id of this log generation; 0 = virgin
	syncing bool   // a group-commit leader's fsync is in flight
	pending []walPending
	failed  error // sticky fail-stop cause; non-nil refuses mutations
	buf     []byte
	// ckptBytes counts log bytes appended since the last checkpoint or
	// compaction — the byte-denominated twin of sinceCkpt, feeding the
	// CheckpointMinBytes schedule.
	ckptBytes int64
	// seq numbers this shard's mutations within the current process
	// lifetime (markers excluded); it is never persisted. Replication
	// identifies stream positions by (runID, shard, seq) — see
	// ReplHooks. Gaps are legal (a failed batch consumes seqs that are
	// never shipped); the invariant is monotonicity.
	seq uint64
	// ship, when non-nil, receives every committed frame batch in log
	// order (see ReplHooks.Commit). Called with sh.mu held; it must
	// only copy the bytes out, never call back into the store.
	ship func(frames []byte, lastSeq uint64)
	// commitWindow is DurableOptions.CommitWindow, copied here so
	// awaitCommit — a shard method — can read it without reaching back
	// into the store.
	commitWindow time.Duration
}

// Durable implements Store and the LockoutStore extension.
var (
	_ Store        = (*Durable)(nil)
	_ LockoutStore = (*Durable)(nil)
)

// walEntry is the JSON payload of one log record. Op distinguishes
// the mutation classes; exactly one of Rec / Failures / Ckpt carries
// the data.
type walEntry struct {
	// Op is "put" (store or overwrite Rec), "del" (remove User),
	// "lock" (set User's failed-attempt counter to Failures; 0
	// clears), "kv" (set Key's side-table blob to Val; empty Val
	// deletes), or "ckpt" (a marker record identifying the log
	// generation — see walckpt.go; never a mutation).
	Op       string             `json:"op"`
	User     string             `json:"user"`
	Rec      *passpoints.Record `json:"rec,omitempty"`
	Failures int                `json:"failures,omitempty"`
	// Key and Val carry a "kv" side-table write (see KVStore); an
	// empty Val deletes Key.
	Key string `json:"key,omitempty"`
	Val []byte `json:"val,omitempty"`
	// Ckpt is the nonzero generation id of a "ckpt" marker record.
	Ckpt uint64 `json:"ckpt,omitempty"`
	// Full marks a "ckpt" marker written by compaction: the log after
	// the marker is the complete state, no checkpoint file needed.
	Full bool `json:"full,omitempty"`
}

const (
	walOpPut  = "put"
	walOpDel  = "del"
	walOpLock = "lock"
	walOpKV   = "kv"
	walOpCkpt = "ckpt"
)

// walHeaderSize is the fixed per-record framing: a little-endian
// uint32 payload length followed by the IEEE CRC32 of the payload.
const walHeaderSize = 8

// walMaxRecord bounds a decoded record length. A corrupt length field
// must not make replay allocate gigabytes; no legitimate entry (one
// user record) approaches this.
const walMaxRecord = 1 << 26

// shardLogName returns the log file name for shard i.
func shardLogName(i int) string { return fmt.Sprintf("shard-%04d.wal", i) }

// OpenDurable opens (creating if needed) the append-log store rooted
// at directory dir and replays every shard into memory — its
// checkpoint (if one exists) plus the log tail appended since, one
// goroutine per shard (the shards share nothing, so recovery scales
// with cores). A log whose tail is torn — a partially written record
// from a crash — is truncated at the tear, recovering every fully
// appended record and dropping only the unacked tail. Close flushes
// and releases the logs; an unclosed store's logs are still
// consistent (that is the point), but Close is how a clean shutdown
// syncs SyncNever data.
func OpenDurable(dir string, opts DurableOptions) (*Durable, error) {
	return openDurable(dir, opts, defaultOpenFile)
}

// openDurable is OpenDurable with an injectable file opener (tests).
func openDurable(dir string, opts DurableOptions, openFile func(string) (walFile, error)) (*Durable, error) {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.CompactRatio <= 0 {
		opts.CompactRatio = DefaultCompactRatio
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if opts.CheckpointMin <= 0 {
		opts.CheckpointMin = DefaultCheckpointMin
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vault: creating %s: %w", dir, err)
	}
	meta, err := loadOrInitMeta(dir, opts.Shards)
	if err != nil {
		return nil, err
	}
	opts.Shards = meta.Shards
	// A crash between CreateTemp and Rename (compaction, checkpoint,
	// rotation, meta write) strands a temp file; clean them up here or
	// repeated crashes leak shard-sized dead files forever. Safe:
	// temps are only live inside a call holding the shard lock, and no
	// other store instance may share the directory.
	for _, pat := range []string{".compact-*", ".meta-*", ".ckpt-*", ".rotate-*"} {
		if stale, _ := filepath.Glob(filepath.Join(dir, pat)); len(stale) > 0 {
			for _, f := range stale {
				_ = os.Remove(f)
			}
		}
	}
	d := &Durable{
		dir:      dir,
		opts:     opts,
		shards:   make([]walShard, opts.Shards),
		openFile: openFile,
		kick:     make(chan int, opts.Shards),
		stop:     make(chan struct{}),
	}
	d.epoch.Store(meta.Epoch)
	// Replay one goroutine per shard: the maps, files, and offsets are
	// all shard-private, so recovery time is the slowest shard, not
	// the sum (par returns the lowest-index failure, and every claimed
	// shard runs to completion, so closeFiles sees a consistent set).
	if err := par.ForEach(0, len(d.shards), func(i int) error {
		sh := &d.shards[i]
		sh.commit.L = &sh.mu
		sh.records = make(map[string]*passpoints.Record)
		sh.lockouts = make(map[string]int)
		sh.kv = make(map[string][]byte)
		sh.commitWindow = opts.CommitWindow
		sh.path = filepath.Join(dir, shardLogName(i))
		sh.ckptPath = filepath.Join(dir, shardCkptName(i))
		return sh.open(openFile)
	}); err != nil {
		d.closeFiles()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		d.closeFiles()
		return nil, err
	}
	if !opts.NoAutoCompact {
		d.bg.Add(1)
		go d.compactLoop()
	}
	if opts.Sync == SyncInterval {
		d.bg.Add(1)
		go d.syncLoop()
	}
	if opts.CheckpointEvery > 0 {
		d.bg.Add(1)
		go d.checkpointLoop()
	}
	return d, nil
}

// open loads the shard's checkpoint (when one exists and matches the
// log generation), replays the log tail (truncating a torn tail), and
// leaves the file open for appends. See walckpt.go for the
// checkpoint/marker matching rules.
func (sh *walShard) open(openFile func(string) (walFile, error)) error {
	f, err := openFile(sh.path)
	if err != nil {
		return fmt.Errorf("vault: opening %s: %w", sh.path, err)
	}
	sh.f = f
	if err := sh.recover(); err != nil {
		f.Close()
		sh.f = nil
		return err
	}
	return nil
}

// apply folds one decoded entry into the shard's maps. Replay-time
// and (eagerly, with applyUndo) mutation-time both route through the
// same switch so live and replayed semantics cannot drift.
func (sh *walShard) apply(e *walEntry) {
	switch e.Op {
	case walOpPut:
		if e.Rec != nil && e.Rec.User != "" {
			sh.records[e.Rec.User] = e.Rec
		}
	case walOpDel:
		delete(sh.records, e.User)
	case walOpLock:
		if e.Failures > 0 {
			sh.lockouts[e.User] = e.Failures
		} else {
			delete(sh.lockouts, e.User)
		}
	case walOpKV:
		if e.Key != "" {
			if len(e.Val) > 0 {
				sh.kv[e.Key] = e.Val
			} else {
				delete(sh.kv, e.Key)
			}
		}
	case walOpCkpt:
		// generation marker, not a mutation
	}
}

// applyUndo applies e to the maps like apply and returns a closure
// that restores the touched key's prior state — the rollback a group
// commit batch runs when its shared fsync fails.
func (sh *walShard) applyUndo(e *walEntry) func() {
	switch e.Op {
	case walOpPut:
		user := e.Rec.User
		prev, had := sh.records[user]
		sh.records[user] = e.Rec
		return func() {
			if had {
				sh.records[user] = prev
			} else {
				delete(sh.records, user)
			}
		}
	case walOpDel:
		prev, had := sh.records[e.User]
		delete(sh.records, e.User)
		return func() {
			if had {
				sh.records[e.User] = prev
			}
		}
	case walOpLock:
		prev, had := sh.lockouts[e.User]
		sh.apply(e)
		return func() {
			if had {
				sh.lockouts[e.User] = prev
			} else {
				delete(sh.lockouts, e.User)
			}
		}
	case walOpKV:
		prev, had := sh.kv[e.Key]
		sh.apply(e)
		return func() {
			if had {
				sh.kv[e.Key] = prev
			} else {
				delete(sh.kv, e.Key)
			}
		}
	}
	return func() {}
}

// replayLog streams records from offset start in f, calling apply for
// each intact one. At the first torn or corrupt record it truncates f
// there — dropping that record and everything after it — and seeks to
// the new end so the caller can append. It returns the number of
// intact records and the absolute log length they occupy.
func replayLog(f walFile, start int64, apply func(*walEntry)) (int, int64, error) {
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("vault: seeking %s: %w", f.Name(), err)
	}
	var (
		r       = bufio.NewReader(f)
		off     = start // start offset of the record being decoded
		n       int
		header  [walHeaderSize]byte
		payload []byte
	)
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			// io.EOF: clean end. ErrUnexpectedEOF: torn header.
			break
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > walMaxRecord {
			break // corrupt length field
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt payload
		}
		var e walEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			break // checksummed garbage: treat like corruption
		}
		apply(&e)
		off += walHeaderSize + int64(length)
		n++
	}
	// Never truncate silently: a crash's torn tail is under one
	// record, but a corrupt byte early in a big log discards every
	// acked record after it — the operator's only chance to reach for
	// a snapshot is this line, because the evidence is gone after the
	// truncate.
	if size, err := f.Seek(0, io.SeekEnd); err == nil && size > off {
		log.Printf("vault: %s: dropping %d bytes after record %d (torn or corrupt tail)",
			f.Name(), size-off, n)
	}
	if err := f.Truncate(off); err != nil {
		return 0, 0, fmt.Errorf("vault: truncating torn tail of %s: %w", f.Name(), err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("vault: seeking %s: %w", f.Name(), err)
	}
	return n, off, nil
}

// encodeEntry frames e for the log: length + CRC32 header, JSON
// payload. buf is reused when large enough.
func encodeEntry(e *walEntry, buf []byte) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("vault: encoding log entry: %w", err)
	}
	need := walHeaderSize + len(payload)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[walHeaderSize:], payload)
	return buf, nil
}

// write encodes e and appends it to the shard's log in one write
// call, advancing wsize (the written — not yet necessarily durable —
// length). Caller holds sh.mu. A failed write truncates back to the
// pre-write offset so torn bytes never sit in front of later records;
// if even that rollback fails, the shard fail-stops — the file's
// write offset can no longer be trusted, and appending anyway would
// strand every later record behind a tear that replay truncates away.
func (sh *walShard) write(e *walEntry) error {
	buf, err := encodeEntry(e, sh.buf)
	if err != nil {
		return err
	}
	sh.buf = buf
	if _, err := sh.f.Write(buf); err != nil {
		werr := fmt.Errorf("vault: appending to %s: %w", sh.path, err)
		if rerr := sh.restore(sh.wsize); rerr != nil {
			sh.failStop(fmt.Errorf("%v; rollback failed: %v", werr, rerr))
		}
		return werr
	}
	sh.wsize += int64(len(buf))
	sh.lsize = sh.wsize
	sh.entries++
	sh.sinceCkpt++
	sh.ckptBytes += int64(len(buf))
	if e.Op != walOpCkpt {
		sh.seq++
	}
	return nil
}

// stage encodes e and appends the frame to the shard's in-memory
// batch buffer — the group-commit write path. The bytes reach the
// file when a batch leader flushes the buffer (awaitCommit); only
// the whole-batch failure paths can discard them, and those fail-stop
// the shard. Caller holds sh.mu.
func (sh *walShard) stage(e *walEntry) error {
	buf, err := encodeEntry(e, sh.buf)
	if err != nil {
		return err
	}
	sh.buf = buf
	sh.wbuf = append(sh.wbuf, buf...)
	sh.lsize += int64(len(buf))
	sh.entries++
	sh.sinceCkpt++
	sh.ckptBytes += int64(len(buf))
	sh.seq++
	return nil
}

// restore truncates the log to off and repositions the write offset
// there — the rollback after a failed append. Both steps must
// succeed: a truncate without the seek leaves the OS file offset
// beyond the end, and the next append would write mid-file garbage
// that replay cannot contain to the tail.
func (sh *walShard) restore(off int64) error {
	if err := sh.f.Truncate(off); err != nil {
		return fmt.Errorf("truncating %s to %d: %w", sh.path, off, err)
	}
	if _, err := sh.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("repositioning %s at %d: %w", sh.path, off, err)
	}
	return nil
}

// failStop marks the shard permanently failed (see ErrShardFailed),
// rolls back every pending group-commit record — map state and log
// bytes — and wakes all waiters so they observe the failure. Caller
// holds sh.mu.
func (sh *walShard) failStop(cause error) {
	if sh.failed == nil {
		sh.failed = cause
		log.Printf("vault: %v; shard %s fail-stopped (reads continue, mutations refused until restart)", cause, sh.path)
	}
	for i := len(sh.pending) - 1; i >= 0; i-- {
		sh.pending[i].undo()
	}
	sh.entries -= len(sh.pending)
	sh.sinceCkpt -= len(sh.pending)
	if sh.ckptBytes -= sh.lsize - sh.off; sh.ckptBytes < 0 {
		sh.ckptBytes = 0
	}
	sh.pending = sh.pending[:0]
	sh.wbuf = sh.wbuf[:0]
	// Best effort: the shard refuses mutations from here on, but a
	// successful truncate keeps unacked bytes out of the log so a
	// restart replays exactly the committed prefix.
	_ = sh.restore(sh.off)
	sh.wsize = sh.off
	sh.lsize = sh.off
	sh.commit.Broadcast()
}

// refuse returns the error a fail-stopped shard hands every mutation.
// Caller holds sh.mu and has checked sh.failed != nil.
func (sh *walShard) refuse() error {
	return fmt.Errorf("%w (%s: %v)", ErrShardFailed, sh.path, sh.failed)
}

// commitTo marks everything below target durable: the committed
// offset advances and the covered pending records drop their undos —
// they are acked. Caller holds sh.mu.
func (sh *walShard) commitTo(target int64) {
	sh.off = target
	n := 0
	for n < len(sh.pending) && sh.pending[n].end <= target {
		n++
	}
	if n > 0 {
		rest := copy(sh.pending, sh.pending[n:])
		for i := rest; i < len(sh.pending); i++ {
			sh.pending[i] = walPending{} // release undo closures
		}
		sh.pending = sh.pending[:rest]
	}
}

// awaitCommit blocks until the record ending at logical offset myEnd
// is durable, or the batch fails. Callers arrive holding sh.mu with
// their record staged in wbuf and a pending entry queued; the first
// one to find no flush in flight becomes the batch leader: it takes
// the whole staged buffer, writes and fsyncs it outside the lock (so
// later writers keep staging — they form the next batch), and wakes
// everyone with the shared result. A failed batch write or fsync
// fails every waiter it covered and fail-stops the shard: the
// waiters' records are interleaved in one flush, so no single record
// can be cleanly retried, and after a failed fsync durability can no
// longer be proven at all (see ErrShardFailed).
func (sh *walShard) awaitCommit(myEnd int64) error {
	for {
		if sh.off >= myEnd {
			return nil // a leader's flush covered us
		}
		if sh.failed != nil {
			return sh.failed // our batch failed; maps already rolled back
		}
		if !sh.syncing {
			sh.syncing = true
			if sh.commitWindow > 0 {
				// Adaptive batching: hold the leader role (syncing is
				// set, so no rival flush starts) but let go of the lock
				// so writers arriving inside the window stage into this
				// very batch instead of the next one.
				sh.mu.Unlock()
				time.Sleep(sh.commitWindow)
				sh.mu.Lock()
				if sh.failed != nil {
					// The shard fail-stopped while we slept (its wbuf is
					// already rolled back); surrender leadership and let
					// the loop report the failure.
					sh.syncing = false
					sh.commit.Broadcast()
					continue
				}
			}
			f := sh.f
			batch := sh.wbuf
			sh.wbuf = nil // writers arriving mid-flush stage a new buffer
			// Every staged record is in this batch, so the shard's seq
			// at take time is the batch's last record's seq — what the
			// replication ship needs to label the frames.
			lastSeq := sh.seq
			target := sh.wsize + int64(len(batch))
			sh.mu.Unlock()
			_, werr := f.Write(batch)
			var serr error
			if werr == nil {
				serr = f.Sync()
			}
			sh.mu.Lock()
			sh.syncing = false
			switch {
			case werr != nil:
				// The file may hold a partial batch; failStop's restore
				// truncates it back to the committed prefix.
				sh.failStop(fmt.Errorf("vault: appending batch to %s: %w", sh.path, werr))
			case serr != nil:
				sh.failStop(fmt.Errorf("vault: syncing %s: %w", sh.path, serr))
			default:
				sh.wsize = target
				sh.commitTo(target)
				// Ship only what an fsync covers, in strict log order:
				// leaders are serialized by `syncing`, and the hook runs
				// under the same lock hold that cleared it, so no later
				// batch can overtake this call.
				if sh.ship != nil && len(batch) > 0 {
					sh.ship(batch, lastSeq)
				}
			}
			sh.commit.Broadcast()
		} else {
			sh.commit.Wait()
		}
	}
}

// quiesce blocks until no group-commit fsync is in flight and no
// written record awaits one (off == wsize): the stable state
// compaction, checkpointing, Save, and Close need before they touch
// the shard's file. Caller holds sh.mu; quiesce may release and
// reacquire it.
func (sh *walShard) quiesce() {
	for sh.syncing || len(sh.pending) > 0 {
		sh.commit.Wait()
	}
}

// live returns the shard's live entry count (records plus tracked
// lockout counters and side-table keys). Caller holds sh.mu.
func (sh *walShard) live() int { return len(sh.records) + len(sh.lockouts) + len(sh.kv) }

// Dir returns the store's log directory.
func (d *Durable) Dir() string { return d.dir }

// Shards returns the shard count.
func (d *Durable) Shards() int { return len(d.shards) }

// shardFor picks the shard by FNV-1a of the user name — the same
// split as Sharded's (see FNV32a).
func (d *Durable) shardFor(user string) (*walShard, int) {
	i := int(FNV32a(user) % uint32(len(d.shards)))
	return &d.shards[i], i
}

// errSkipAppend is returned by a mutate precondition to turn the call
// into an acked no-op (nothing appended, nothing applied).
var errSkipAppend = errors.New("vault: skip append")

// mutate is the single write path: under the shard lock it runs pre
// (which may refuse the mutation, or skip it via errSkipAppend),
// writes e to the shard's log, applies it to the shard's maps, and —
// under SyncAlways — joins the shard's group commit, acking only once
// a shared fsync covers the record (rolling the map update back if
// the batch fails). It nudges the compactor when the shard's garbage
// crosses the configured ratio.
func (d *Durable) mutate(user string, e *walEntry, pre func(*walShard) error) error {
	if d.closed.Load() {
		return fmt.Errorf("vault: store is closed")
	}
	sh, i := d.shardFor(user)
	sh.mu.Lock()
	if sh.f == nil {
		// Close won the race between our closed-flag check and the
		// shard lock; without this re-check the append would fail with
		// an unhelpful ErrInvalid from the nil file.
		sh.mu.Unlock()
		return fmt.Errorf("vault: store is closed")
	}
	if sh.failed != nil {
		err := sh.refuse()
		sh.mu.Unlock()
		return err
	}
	if pre != nil {
		if err := pre(sh); err != nil {
			sh.mu.Unlock()
			if err == errSkipAppend {
				return nil
			}
			return err
		}
	}
	var err error
	var myseq uint64
	if d.opts.Sync == SyncAlways {
		if err := sh.stage(e); err != nil {
			sh.mu.Unlock()
			return err
		}
		myseq = sh.seq
		sh.pending = append(sh.pending, walPending{end: sh.lsize, undo: sh.applyUndo(e)})
		err = sh.awaitCommit(sh.lsize)
	} else {
		if err := sh.write(e); err != nil {
			sh.mu.Unlock()
			return err
		}
		myseq = sh.seq
		sh.apply(e)
		sh.off = sh.wsize
		sh.dirty = true
		sh.dirtyGen++
		// Ship the committed frame before releasing the lock so two
		// writers' frames reach the replication buffer in log order.
		if sh.ship != nil {
			sh.ship(sh.buf, myseq)
		}
	}
	needCompact := err == nil && sh.entries >= compactMinEntries &&
		float64(sh.entries-sh.live()) > d.opts.CompactRatio*float64(max(sh.live(), 1))
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	if wait := d.replWait.Load(); wait != nil {
		// Quorum ack: block until the follower's fsync covers this
		// record. A wait failure errors the writer WITHOUT rolling back
		// or fail-stopping — the record is locally durable and the
		// stream will deliver it on reconnect, so state never diverges;
		// the caller just cannot claim replica coverage for it.
		if werr := (*wait)(i, myseq); werr != nil {
			return werr
		}
	}
	if needCompact && !d.opts.NoAutoCompact {
		select {
		case d.kick <- i:
		default: // compactor busy; it will be re-kicked by a later write
		}
	}
	return nil
}

// Put stores a record for a new user, appending it to the user's
// shard log before acking.
func (d *Durable) Put(rec *passpoints.Record) error {
	if rec == nil || rec.User == "" {
		return fmt.Errorf("vault: record must have a user")
	}
	return d.mutate(rec.User, &walEntry{Op: walOpPut, Rec: rec},
		func(sh *walShard) error {
			if _, ok := sh.records[rec.User]; ok {
				return ErrExists
			}
			return nil
		})
}

// Replace stores a record, overwriting any existing one (password
// change), appending before acking.
func (d *Durable) Replace(rec *passpoints.Record) error {
	if rec == nil || rec.User == "" {
		return fmt.Errorf("vault: record must have a user")
	}
	return d.mutate(rec.User, &walEntry{Op: walOpPut, Rec: rec}, nil)
}

// Get returns the record for user, or ErrNotFound.
func (d *Durable) Get(user string) (*passpoints.Record, error) {
	sh, _ := d.shardFor(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.records[user]
	if !ok {
		return nil, ErrNotFound
	}
	return rec, nil
}

// Delete removes a user's record; deleting a missing user is a no-op
// and appends nothing.
func (d *Durable) Delete(user string) {
	_ = d.mutate(user, &walEntry{Op: walOpDel, User: user},
		func(sh *walShard) error {
			if _, ok := sh.records[user]; !ok {
				return errSkipAppend
			}
			return nil
		})
}

// SetLockout durably sets user's failed-attempt counter; failures <= 0
// clears it. It implements LockoutStore: the auth service writes
// every counter change through here so lockout state — the §5.1
// online-attack defense — survives a restart instead of resetting to
// a fresh attempt budget.
func (d *Durable) SetLockout(user string, failures int) error {
	if user == "" {
		return fmt.Errorf("vault: lockout entry must name a user")
	}
	if failures < 0 {
		failures = 0
	}
	return d.mutate(user, &walEntry{Op: walOpLock, User: user, Failures: failures}, nil)
}

// SetKV durably sets key's side-table blob to val, appending the write
// to key's shard log (FNV32a(key), the same split as records) before
// acking — so the blob survives a crash, rides checkpoints and
// compaction, and replicates to a follower exactly like a record. An
// empty or nil val deletes the key (a no-op append is skipped when the
// key is already absent). It implements the KVStore extension; the
// session tier persists its signing keys and revocation watermarks
// through here.
func (d *Durable) SetKV(key string, val []byte) error {
	if key == "" {
		return fmt.Errorf("vault: kv entry must have a key")
	}
	if len(val) == 0 {
		return d.mutate(key, &walEntry{Op: walOpKV, Key: key},
			func(sh *walShard) error {
				if _, ok := sh.kv[key]; !ok {
					return errSkipAppend
				}
				return nil
			})
	}
	// Copy val: the caller may reuse its buffer, and the shard map (and
	// a staged-but-unflushed log frame's JSON) must not alias it.
	v := make([]byte, len(val))
	copy(v, val)
	return d.mutate(key, &walEntry{Op: walOpKV, Key: key, Val: v}, nil)
}

// GetKV returns a copy of key's side-table blob and whether it exists.
func (d *Durable) GetKV(key string) ([]byte, bool) {
	sh, _ := d.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.kv[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// KVRange returns a copy of every side-table entry whose key starts
// with prefix ("" for all). Per-shard-consistent like Snapshot.
func (d *Durable) KVRange(prefix string) map[string][]byte {
	out := make(map[string][]byte)
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for k, v := range sh.kv {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				c := make([]byte, len(v))
				copy(c, v)
				out[k] = c
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// SetKVWatch installs (or with nil removes) the observer for
// side-table keys changed by replication (ApplyReplFrames and
// InstallShardSnapshot; val is nil for a deletion). The callback runs
// after every store lock is released, so it may call back into the
// store; it must tolerate duplicate and out-of-date deliveries (a
// snapshot install re-delivers every key it carries). Local SetKV
// calls are not observed — see the field comment on kvWatch.
func (d *Durable) SetKVWatch(fn func(key string, val []byte)) {
	if fn == nil {
		d.kvWatch.Store(nil)
		return
	}
	d.kvWatch.Store(&fn)
}

// Lockouts returns a copy of every persisted failed-attempt counter.
func (d *Durable) Lockouts() map[string]int {
	out := make(map[string]int)
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for u, n := range sh.lockouts {
			out[u] = n
		}
		sh.mu.Unlock()
	}
	return out
}

// Users returns all user names in sorted order.
func (d *Durable) Users() []string {
	users := make([]string, 0, d.Len())
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for u := range sh.records {
			users = append(users, u)
		}
		sh.mu.Unlock()
	}
	sort.Strings(users)
	return users
}

// Len returns the number of records.
func (d *Durable) Len() int {
	n := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		n += len(sh.records)
		sh.mu.Unlock()
	}
	return n
}

// All returns every record sorted by user — the attacker's view after
// a password-file compromise.
func (d *Durable) All() []*passpoints.Record {
	recs := d.Snapshot()
	sort.Slice(recs, func(i, j int) bool { return recs[i].User < recs[j].User })
	return recs
}

// Snapshot returns every record in shard order without the global
// sort, per-shard-consistent exactly like Sharded.Snapshot.
func (d *Durable) Snapshot() []*passpoints.Record {
	recs := make([]*passpoints.Record, 0, d.Len())
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for _, r := range sh.records {
			recs = append(recs, r)
		}
		sh.mu.Unlock()
	}
	return recs
}

// Save fsyncs every shard log. Durability is continuous for this
// backend — the logs ARE the backing file — so Save's contract
// ("persist current state") reduces to flushing whatever the sync
// policy has deferred. The fsyncs run outside the shard locks, so a
// slow disk stalls Save, not concurrent appends; a failed fsync
// fail-stops the shard like any other (ErrShardFailed).
func (d *Durable) Save() error {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		if sh.f == nil {
			sh.mu.Unlock()
			return fmt.Errorf("vault: store is closed")
		}
		if sh.failed != nil {
			err := sh.refuse()
			sh.mu.Unlock()
			return err
		}
		sh.quiesce()
		f := sh.f
		gen := sh.dirtyGen
		sh.mu.Unlock()
		err := f.Sync()
		sh.mu.Lock()
		if err != nil {
			if sh.f == f && sh.failed == nil {
				sh.failStop(fmt.Errorf("vault: syncing %s: %w", sh.path, err))
			}
			sh.mu.Unlock()
			return fmt.Errorf("vault: syncing %s: %w", sh.path, err)
		}
		if sh.f == f && sh.dirtyGen == gen {
			sh.dirty = false
		}
		sh.mu.Unlock()
	}
	return nil
}

// SaveTo exports the store as the canonical sorted-JSON snapshot the
// other two backends read and write — the migration/downgrade path
// out of the log format.
func (d *Durable) SaveTo(path string) error {
	return writeRecords(path, d.All())
}

// ImportJSON loads a JSON snapshot (the Sharded on-disk format) into
// an empty durable store, appending every record to its shard log —
// the in-place migration path for a deployment moving off the memory
// backend. It refuses to import over existing records.
// Records are appended unsynced and flushed once per shard at the
// end: per-record durability buys nothing here (a failed import is
// retried from the snapshot anyway), and one fsync per shard instead
// of per user keeps a million-record migration in seconds, not
// hours.
func (d *Durable) ImportJSON(path string) error {
	if d.Len() > 0 {
		return fmt.Errorf("vault: ImportJSON into non-empty store")
	}
	recs, err := loadRecords(path)
	if err != nil {
		return err
	}
	for _, r := range recs {
		// loadRecords already validated non-nil records and distinct,
		// non-empty users.
		sh, _ := d.shardFor(r.User)
		sh.mu.Lock()
		if sh.f == nil {
			sh.mu.Unlock()
			return fmt.Errorf("vault: store is closed")
		}
		if sh.failed != nil {
			err := sh.refuse()
			sh.mu.Unlock()
			return err
		}
		e := &walEntry{Op: walOpPut, Rec: r}
		if err := sh.write(e); err != nil {
			sh.mu.Unlock()
			return err
		}
		sh.apply(e)
		sh.off = sh.wsize
		sh.dirty = true
		sh.dirtyGen++
		sh.mu.Unlock()
	}
	return d.Save()
}

// Compact synchronously rewrites every shard's log from its live map,
// discarding dead records. (For this backend Compact rewrites the
// logs themselves; use SaveTo for the JSON snapshot Sharded.Compact
// produces.)
func (d *Durable) Compact() error {
	for i := range d.shards {
		if err := d.CompactShard(i); err != nil {
			return err
		}
	}
	return nil
}

// CompactShard rewrites shard i's log from its live map: the new log
// is written to a temp file, fsynced, and renamed over the old one,
// so a crash mid-compaction leaves the previous log intact. The new
// log opens with a "full" generation marker, and any checkpoint file
// for the shard is removed afterwards — a compacted log is itself a
// complete snapshot, so recovery never needs (and must not trust) an
// older checkpoint over it. The shard is write-locked for the
// duration.
func (d *Durable) CompactShard(i int) error {
	if i < 0 || i >= len(d.shards) {
		return fmt.Errorf("vault: no shard %d", i)
	}
	sh := &d.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.f == nil {
		return fmt.Errorf("vault: store is closed")
	}
	if sh.failed != nil {
		return sh.refuse()
	}
	// Wait out any in-flight group commit: the batch's fsync targets
	// the file we are about to replace.
	sh.quiesce()
	return d.rewriteShardLocked(i, sh)
}

// rewriteShardLocked rewrites shard i's log from its live maps behind
// a "full" generation marker — the shared tail of CompactShard and
// InstallShardSnapshot. Caller holds sh.mu with the shard quiesced.
func (d *Durable) rewriteShardLocked(i int, sh *walShard) error {
	id, err := newWalID()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, ".compact-*")
	if err != nil {
		return fmt.Errorf("vault: compaction temp file: %w", err)
	}
	tmpName := tmp.Name()
	ok := false
	defer func() {
		if !ok {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	w := bufio.NewWriter(tmp)
	n := 0
	writeEntry := func(e *walEntry) error {
		buf, err := encodeEntry(e, nil)
		if err != nil {
			return err
		}
		_, err = w.Write(buf)
		return err
	}
	if err := writeEntry(&walEntry{Op: walOpCkpt, Ckpt: id, Full: true}); err != nil {
		return fmt.Errorf("vault: compacting %s: %w", sh.path, err)
	}
	for _, rec := range sh.records {
		if err := writeEntry(&walEntry{Op: walOpPut, Rec: rec}); err != nil {
			return fmt.Errorf("vault: compacting %s: %w", sh.path, err)
		}
		n++
	}
	for user, failures := range sh.lockouts {
		if err := writeEntry(&walEntry{Op: walOpLock, User: user, Failures: failures}); err != nil {
			return fmt.Errorf("vault: compacting %s: %w", sh.path, err)
		}
		n++
	}
	for key, val := range sh.kv {
		if err := writeEntry(&walEntry{Op: walOpKV, Key: key, Val: val}); err != nil {
			return fmt.Errorf("vault: compacting %s: %w", sh.path, err)
		}
		n++
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("vault: compacting %s: %w", sh.path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("vault: syncing compacted %s: %w", sh.path, err)
	}
	// Size the new log before the rename commits it: failing here
	// still leaves the old log live, whereas any error after the
	// rename would leave sh.f pointing at the replaced inode and
	// every later acked append would vanish on restart.
	newOff, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("vault: sizing compacted %s: %w", sh.path, err)
	}
	if err := os.Rename(tmpName, sh.path); err != nil {
		return fmt.Errorf("vault: committing compacted %s: %w", sh.path, err)
	}
	ok = true
	if hook := d.testCrashAfterCompactRename; hook != nil {
		hook(i)
	}
	// Reopen the log by path rather than keeping tmp's descriptor.
	// The rename doesn't invalidate it, but fsyncs on a descriptor
	// whose inode was renamed into place have been observed to wedge
	// in the kernel under concurrent load on some filesystems; a
	// fresh open by the final path sidesteps that entirely.
	tmp.Close()
	nf, err := d.openFile(sh.path)
	if err != nil {
		// The compacted log is durably in place but we cannot append
		// to it: the shard's file state is unusable.
		sh.failStop(fmt.Errorf("vault: reopening compacted %s: %w", sh.path, err))
		return fmt.Errorf("vault: reopening compacted %s: %w", sh.path, err)
	}
	if _, err := nf.Seek(newOff, io.SeekStart); err != nil {
		nf.Close()
		sh.failStop(fmt.Errorf("vault: positioning compacted %s: %w", sh.path, err))
		return fmt.Errorf("vault: positioning compacted %s: %w", sh.path, err)
	}
	old := sh.f
	sh.f = nf
	sh.off = newOff
	sh.wsize = newOff
	sh.lsize = newOff
	sh.entries = n
	sh.sinceCkpt = 0
	sh.ckptBytes = 0
	sh.dirty = false
	sh.logID = id
	old.Close()
	// The compacted log supersedes any checkpoint; recovery prefers
	// the "full" marker, so a crash before this remove only leaves a
	// stale file the next open deletes.
	if err := os.Remove(sh.ckptPath); err != nil && !os.IsNotExist(err) {
		log.Printf("vault: removing stale checkpoint %s: %v", sh.ckptPath, err)
	}
	return syncDir(d.dir)
}

// compactLoop is the background compactor: it waits for shard indexes
// kicked by writers and rewrites those logs. One log rewrite at a
// time keeps the I/O burst bounded.
func (d *Durable) compactLoop() {
	defer d.bg.Done()
	for {
		select {
		case <-d.stop:
			return
		case i := <-d.kick:
			// Re-check under the lock via CompactShard? The ratio may
			// have been reset by an interleaved manual Compact; a
			// redundant rewrite is merely wasted I/O, not a bug.
			_ = d.CompactShard(i)
		}
	}
}

// syncLoop is the SyncInterval flusher: every SyncEvery it fsyncs
// shards with unsynced appends. The fsync runs outside the shard
// lock — one slow disk sync must stall this loop, not every
// foreground append to the shard — and dirty is cleared through a
// generation counter, so an append landing mid-sync keeps the shard
// dirty and the next tick covers it. A failed background fsync
// fail-stops the shard (ErrShardFailed): retrying would trust a
// kernel that may already have dropped the dirty pages, silently
// turning acked data non-durable.
func (d *Durable) syncLoop() {
	defer d.bg.Done()
	t := time.NewTicker(d.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			for i := range d.shards {
				sh := &d.shards[i]
				sh.mu.Lock()
				if !sh.dirty || sh.f == nil || sh.failed != nil {
					sh.mu.Unlock()
					continue
				}
				f := sh.f
				gen := sh.dirtyGen
				sh.mu.Unlock()
				err := f.Sync()
				sh.mu.Lock()
				switch {
				case err != nil:
					// Unless compaction already replaced (and fsynced)
					// the file we failed to sync, the shard's
					// durability can no longer be proven.
					if sh.f == f && sh.failed == nil {
						sh.failStop(fmt.Errorf("vault: background sync of %s: %w", sh.path, err))
					}
				case sh.f == f && sh.dirtyGen == gen:
					sh.dirty = false
				}
				sh.mu.Unlock()
			}
		}
	}
}

// Close stops the background goroutines, fsyncs every log, and closes
// the files. The store must not be used after Close; mutations on a
// closed store fail.
func (d *Durable) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(d.stop)
	d.bg.Wait()
	var firstErr error
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		if sh.f != nil {
			sh.quiesce() // drain any in-flight group commit first
			if sh.failed == nil {
				if err := sh.f.Sync(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			if err := sh.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.f = nil
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// closeFiles releases shard files after a failed open, before any
// background goroutine exists.
func (d *Durable) closeFiles() {
	for i := range d.shards {
		if f := d.shards[i].f; f != nil {
			f.Close()
		}
	}
}

// walMeta is the meta.json document pinning the directory's layout
// and replication identity.
type walMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	// Epoch is the store's monotonic replication epoch (see Epoch /
	// SetEpoch); 0 — including its absence from pre-replication
	// directories — means "never participated in a failover".
	Epoch uint64 `json:"epoch,omitempty"`
}

// loadOrInitMeta reads the directory's metadata, writing meta.json
// (atomically, before any log exists) on first creation. An existing
// directory's shard count always wins over the caller's request — the
// logs were partitioned under it.
func loadOrInitMeta(dir string, want int) (walMeta, error) {
	path := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(path)
	if err == nil {
		var m walMeta
		if err := json.Unmarshal(data, &m); err != nil {
			return walMeta{}, fmt.Errorf("vault: parsing %s: %w", path, err)
		}
		if m.Shards <= 0 {
			return walMeta{}, fmt.Errorf("vault: %s has invalid shard count %d", path, m.Shards)
		}
		return m, nil
	}
	if !os.IsNotExist(err) {
		return walMeta{}, fmt.Errorf("vault: reading %s: %w", path, err)
	}
	// Fresh directory — but refuse to guess if logs are already there
	// (a hand-deleted meta.json must not silently re-partition them).
	if logs, _ := filepath.Glob(filepath.Join(dir, "shard-*.wal")); len(logs) > 0 {
		return walMeta{}, fmt.Errorf("vault: %s has shard logs but no meta.json", dir)
	}
	m := walMeta{Version: 1, Shards: want}
	if err := writeMetaFile(dir, m); err != nil {
		return walMeta{}, err
	}
	return m, nil
}

// writeMetaFile durably rewrites the directory's meta.json: temp file,
// fsync, rename, directory fsync.
func writeMetaFile(dir string, m walMeta) error {
	path := filepath.Join(dir, "meta.json")
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".meta-*")
	if err != nil {
		return fmt.Errorf("vault: meta temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("vault: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("vault: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("vault: committing %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so file creations and renames inside it
// are themselves durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("vault: opening %s for sync: %w", dir, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("vault: syncing %s: %w", dir, err)
	}
	return nil
}
