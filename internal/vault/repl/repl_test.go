package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// testRecord returns a minimal valid record for user.
func testRecord(user string) *passpoints.Record {
	return &passpoints.Record{User: user, Kind: "passpoints", SquareSidePx: 19, ImageW: 451, ImageH: 331,
		Salt: []byte("salt"), Iterations: 1, Digest: []byte(user + "-digest")}
}

// openTestStore opens a small durable store for replication tests.
// NoAutoCompact keeps background log rewrites (and their directory
// fsyncs) out of timing-sensitive tests — same rationale as the
// walstore concurrency tests.
func openTestStore(t *testing.T) *vault.Durable {
	t.Helper()
	st, err := vault.OpenDurable(t.TempDir(), vault.DurableOptions{Shards: 4, Sync: vault.SyncAlways, NoAutoCompact: true})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// quietLogf swallows the replication chatter unless -v debugging.
func quietLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

// newTestPrimary starts a primary Node on a loopback listener.
func newTestPrimary(t *testing.T, st *vault.Durable, opts Options) *Node {
	t.Helper()
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	if opts.Logf == nil {
		opts.Logf = quietLogf(t)
	}
	n, err := New(st, RolePrimary, opts)
	if err != nil {
		t.Fatalf("New(primary): %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// newTestFollower starts a follower Node dialing primary.
func newTestFollower(t *testing.T, st *vault.Durable, primary string, opts Options) *Node {
	t.Helper()
	opts.Primary = primary
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	if opts.Logf == nil {
		opts.Logf = quietLogf(t)
	}
	n, err := New(st, RoleFollower, opts)
	if err != nil {
		t.Fatalf("New(follower): %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplPairConverges is the basic log-shipping test: mutations on
// the primary (records, lockouts, deletes) appear on the follower,
// and in quorum mode every ack implies the follower already has the
// write durably.
func TestReplPairConverges(t *testing.T) {
	pst, fst := openTestStore(t), openTestStore(t)
	p := newTestPrimary(t, pst, Options{Ack: AckQuorum, QuorumTimeout: 5 * time.Second})
	f := newTestFollower(t, fst, p.ReplAddr(), Options{Ack: AckQuorum})

	const users = 40
	for i := 0; i < users; i++ {
		if err := p.Put(testRecord(fmt.Sprintf("user%03d", i))); err != nil {
			t.Fatalf("Put user%03d: %v", i, err)
		}
	}
	if err := p.SetLockout("user001", 3); err != nil {
		t.Fatalf("SetLockout: %v", err)
	}
	p.Delete("user002")

	// Quorum mode: by the time the mutations above returned, the
	// follower's fsync covered them — no polling needed for the
	// record set, only map visibility (applied under the shard lock
	// before the ack was sent, so none at all).
	if got := fst.Len(); got != users-1 {
		t.Fatalf("follower has %d records, want %d", got, users-1)
	}
	if _, err := fst.Get("user002"); !errors.Is(err, vault.ErrNotFound) {
		t.Fatalf("follower still has deleted user002 (err=%v)", err)
	}
	if got := fst.Lockouts()["user001"]; got != 3 {
		t.Fatalf("follower lockout for user001 = %d, want 3", got)
	}

	// Follower role guard: mutations refused with a redirect, reads
	// served. (Asserted on the one attached follower — the primary
	// refuses a second concurrent follower connection outright.)
	waitFor(t, 5*time.Second, "follower convergence", func() bool { return f.Len() == users-1 })
	err := f.Put(testRecord("newuser"))
	var npe *vault.NotPrimaryError
	if !errors.As(err, &npe) || !errors.Is(err, vault.ErrNotPrimary) {
		t.Fatalf("follower Put = %v, want NotPrimaryError", err)
	}
	if _, err := f.Get("user001"); err != nil {
		t.Fatalf("follower Get: %v", err)
	}
	if err := f.SetLockout("user001", 9); !errors.Is(err, vault.ErrNotPrimary) {
		t.Fatalf("follower SetLockout = %v, want ErrNotPrimary", err)
	}
}

// TestReplQuorumTimeoutWithoutFollower: with no follower attached, a
// quorum-mode mutation fails its writer after the timeout — but the
// record is locally durable and visible (the documented semantics:
// the error denies replica coverage, not existence).
// TestReplSecondFollowerRefused: the primary admits exactly one
// follower connection; a second concurrent one is refused (its conn
// drops, it never bootstraps) while the first keeps streaming —
// single-follower quorum stays sound instead of entering the
// undefined two-follower max-ack regime.
func TestReplSecondFollowerRefused(t *testing.T) {
	p := newTestPrimary(t, openTestStore(t), Options{Ack: AckAsync})
	f1 := newTestFollower(t, openTestStore(t), p.ReplAddr(), Options{})
	if err := p.Put(testRecord("alice")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	waitFor(t, 5*time.Second, "first follower bootstrap", func() bool { return f1.Len() == 1 })

	f2 := newTestFollower(t, openTestStore(t), p.ReplAddr(), Options{Redial: 50 * time.Millisecond})
	// Give the second follower several dial attempts; it must never be
	// admitted, so it never sees the record.
	time.Sleep(300 * time.Millisecond)
	if got := f2.Len(); got != 0 {
		t.Fatalf("second follower bootstrapped %d records; the primary should have refused it", got)
	}
	st := p.Stats()
	if len(st.Followers) != 1 {
		t.Fatalf("primary reports %d followers, want exactly 1", len(st.Followers))
	}
	// The first follower still streams.
	if err := p.Put(testRecord("bob")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	waitFor(t, 5*time.Second, "first follower still streaming", func() bool { return f1.Len() == 2 })
}

func TestReplQuorumTimeoutWithoutFollower(t *testing.T) {
	st := openTestStore(t)
	p := newTestPrimary(t, st, Options{Ack: AckQuorum, QuorumTimeout: 100 * time.Millisecond})
	err := p.Put(testRecord("alone"))
	if err == nil {
		t.Fatal("Put acked with no follower in quorum mode")
	}
	if _, gerr := st.Get("alone"); gerr != nil {
		t.Fatalf("record not locally durable after quorum timeout: %v", gerr)
	}
}

// TestReplQuorumGateOutlivesClose: a write that passed the primary's
// role check before Close but reaches the store after it (the race
// the failover torture hits) must not ack as replica-covered. The
// store is written directly to stand in for that late writer.
func TestReplQuorumGateOutlivesClose(t *testing.T) {
	pst, fst := openTestStore(t), openTestStore(t)
	p := newTestPrimary(t, pst, Options{Ack: AckQuorum, QuorumTimeout: 2 * time.Second})
	newTestFollower(t, fst, p.ReplAddr(), Options{Redial: 10 * time.Millisecond})
	if err := p.Put(testRecord("before")); err != nil {
		t.Fatalf("quorum Put with a follower attached: %v", err)
	}
	p.Close()
	if err := pst.Put(testRecord("late")); !errors.Is(err, errNodeClosed) {
		t.Fatalf("write after the primary closed: err = %v, want %v", err, errNodeClosed)
	}
}

// TestReplAsyncMode: async ack mode acks immediately and the follower
// converges eventually.
func TestReplAsyncMode(t *testing.T) {
	pst, fst := openTestStore(t), openTestStore(t)
	p := newTestPrimary(t, pst, Options{Ack: AckAsync})
	newTestFollower(t, fst, p.ReplAddr(), Options{})
	for i := 0; i < 20; i++ {
		if err := p.Put(testRecord(fmt.Sprintf("async%02d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	waitFor(t, 5*time.Second, "async convergence", func() bool { return fst.Len() == 20 })
}

// TestReplPromoteAndFence: promoting the follower bumps the epoch
// durably, the new primary accepts writes, and the old primary —
// notified via the best-effort fence — refuses post-fence writes with
// a redirect to the new primary, never applying them.
func TestReplPromoteAndFence(t *testing.T) {
	pst, fst := openTestStore(t), openTestStore(t)
	p := newTestPrimary(t, pst, Options{Ack: AckQuorum, QuorumTimeout: 5 * time.Second, Advertise: "old:1"})
	f := newTestFollower(t, fst, p.ReplAddr(), Options{Advertise: "new:1"})
	for i := 0; i < 10; i++ {
		if err := p.Put(testRecord(fmt.Sprintf("pre%02d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	oldEpoch := p.Epoch()
	epoch, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if epoch <= oldEpoch {
		t.Fatalf("promotion epoch %d not above old %d", epoch, oldEpoch)
	}
	if fst.Epoch() != epoch {
		t.Fatalf("promoted epoch not persisted: store %d, node %d", fst.Epoch(), epoch)
	}
	// New primary accepts writes (no follower attached → use a write
	// that needs no quorum: promote started a fresh primary with the
	// same Ack mode, so attach the old node? No — async assert via
	// the follower-less quorum timeout would slow the test. The
	// promoted node inherited AckQuorum... so spin a follower for it.
	newFst := openTestStore(t)
	newTestFollower(t, newFst, f.ReplAddr(), Options{})
	if err := f.Put(testRecord("post-promote")); err != nil {
		t.Fatalf("promoted primary Put: %v", err)
	}
	waitFor(t, 5*time.Second, "new follower catch-up", func() bool { return newFst.Len() == 11 })

	// The deposed primary fences once the promoted node's hello lands.
	waitFor(t, 5*time.Second, "old primary fence", func() bool { return p.Stats().Fenced })
	err = p.Put(testRecord("zombie-write"))
	var npe *vault.NotPrimaryError
	if !errors.As(err, &npe) {
		t.Fatalf("fenced primary Put = %v, want NotPrimaryError", err)
	}
	if npe.Primary != "new:1" {
		t.Fatalf("fence redirect = %q, want new:1", npe.Primary)
	}
	if _, gerr := pst.Get("zombie-write"); !errors.Is(gerr, vault.ErrNotFound) {
		t.Fatal("fenced primary applied a refused write")
	}
	if pst.Epoch() < epoch {
		t.Fatalf("fenced primary's epoch %d below %d", pst.Epoch(), epoch)
	}
}

// TestReplRebootstrapAfterRetentionOverflow: a follower that attaches
// after the primary's bounded retention buffer dropped history gets a
// snapshot bootstrap and still converges.
func TestReplRebootstrapAfterRetentionOverflow(t *testing.T) {
	pst := openTestStore(t)
	p := newTestPrimary(t, pst, Options{Ack: AckAsync, RetainBytes: 256}) // a handful of frames
	for i := 0; i < 100; i++ {
		if err := p.Put(testRecord(fmt.Sprintf("bulk%03d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	fst := openTestStore(t)
	newTestFollower(t, fst, p.ReplAddr(), Options{})
	waitFor(t, 5*time.Second, "snapshot bootstrap", func() bool { return fst.Len() == 100 })
	// And the stream keeps flowing after the bootstrap.
	if err := p.Put(testRecord("tail")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	waitFor(t, 5*time.Second, "post-bootstrap tail", func() bool { return fst.Len() == 101 })
}

// TestReplFollowerStaleness: a follower cut off from its primary
// refuses reads once outside the staleness bound, with a redirect.
func TestReplFollowerStaleness(t *testing.T) {
	pst, fst := openTestStore(t), openTestStore(t)
	p := newTestPrimary(t, pst, Options{Ack: AckAsync, Advertise: "primary:9", Heartbeat: 20 * time.Millisecond})
	f := newTestFollower(t, fst, p.ReplAddr(), Options{Staleness: 150 * time.Millisecond, Redial: 20 * time.Millisecond})
	if err := p.Put(testRecord("fresh")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	waitFor(t, 5*time.Second, "convergence", func() bool { return fst.Len() == 1 })
	if _, err := f.Get("fresh"); err != nil {
		t.Fatalf("fresh follower Get: %v", err)
	}
	p.Close() // heartbeats stop
	waitFor(t, 5*time.Second, "staleness trip", func() bool {
		_, err := f.Get("fresh")
		return errors.Is(err, vault.ErrNotPrimary)
	})
	var npe *vault.NotPrimaryError
	_, err := f.Get("fresh")
	if !errors.As(err, &npe) || npe.Primary != "primary:9" {
		t.Fatalf("stale read error = %v, want redirect to primary:9", err)
	}
}

// TestCollectWorkSnapshotsAcrossTrimGap: a cursor at or below the
// trim watermark must escalate to a snapshot even when retained
// entries exist above it — shipping from the retained floor would
// silently skip the trimmed committed records in between.
func TestCollectWorkSnapshotsAcrossTrimGap(t *testing.T) {
	ps := &primaryState{
		head: []uint64{9},
		bufs: []shardBuf{{
			entries:        []bufEntry{{seq: 8, frame: []byte("x8")}, {seq: 9, frame: []byte("x9")}},
			bytes:          4,
			trimmedThrough: 7,
		}},
	}
	// Cursor 5 is owed trimmed seqs 5..7: snapshot, never frames.
	acts := ps.collectWork([]uint64{5})
	if len(acts) != 1 || !acts[0].snapshot {
		t.Fatalf("cursor below trim watermark: got %+v, want a snapshot", acts)
	}
	// Cursor 8 resumes exactly at the retained floor: frames are safe.
	acts = ps.collectWork([]uint64{8})
	if len(acts) != 1 || acts[0].snapshot || acts[0].lastSeq != 9 {
		t.Fatalf("cursor at retained floor: got %+v, want frames through seq 9", acts)
	}
	// Cursor 10 is fully caught up: nothing owed.
	if acts := ps.collectWork([]uint64{10}); len(acts) != 0 {
		t.Fatalf("caught-up cursor: got %+v, want none", acts)
	}
}

// TestReplPartialTrimForcesSnapshot: when retention trims only part
// of what a detached follower missed (trimmed records below, retained
// tail above), resuming from the retained tail would silently skip
// the trimmed records — the follower must re-bootstrap and converge
// to the full state.
func TestReplPartialTrimForcesSnapshot(t *testing.T) {
	pst := openTestStore(t)
	p := newTestPrimary(t, pst, Options{Ack: AckAsync, RetainBytes: 2048})
	fst := openTestStore(t)
	var mu sync.Mutex
	blocked := false
	var conns []net.Conn
	dial := func(addr string) (net.Conn, error) {
		mu.Lock()
		if blocked {
			mu.Unlock()
			return nil, fmt.Errorf("link severed")
		}
		mu.Unlock()
		c, err := net.Dial("tcp", addr)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}
	newTestFollower(t, fst, p.ReplAddr(), Options{Dial: dial, Redial: 20 * time.Millisecond})
	if err := p.Put(testRecord("seed")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	waitFor(t, 5*time.Second, "initial convergence", func() bool { return fst.Len() == 1 })
	// Sever the link, then churn enough that each shard's retention
	// trims part — but typically not all — of what the follower
	// missed.
	mu.Lock()
	blocked = true
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()
	for i := 0; i < 100; i++ {
		if err := p.Put(testRecord(fmt.Sprintf("churn%03d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	mu.Lock()
	blocked = false
	mu.Unlock()
	waitFor(t, 10*time.Second, "re-bootstrap convergence", func() bool { return fst.Len() == 101 })
	// The oldest churn record sits below the retained tail of its
	// shard; it must have arrived via the snapshot.
	if _, err := fst.Get("churn000"); err != nil {
		t.Fatalf("follower is missing a trimmed-window record: %v", err)
	}
}

// TestStaleFenceIgnoredAtOrBelowOwnEpoch: fence re-checks the epoch
// under the node lock — a fence carrying an epoch the node has
// already reached (its caller compared epochs outside the lock, so a
// concurrent Promote may have raced past it) must be a no-op, not
// tear down the primary machinery of an up-to-date primary.
func TestStaleFenceIgnoredAtOrBelowOwnEpoch(t *testing.T) {
	st := openTestStore(t)
	p := newTestPrimary(t, st, Options{Ack: AckAsync})
	e := p.Epoch()
	p.fence(e, "stale:1")
	if s := p.Stats(); s.Fenced {
		t.Fatalf("equal-epoch fence deposed an active primary: %+v", s)
	}
	if err := p.Put(testRecord("after-stale-fence")); err != nil {
		t.Fatalf("Put after stale fence: %v", err)
	}
	// A genuinely higher epoch still fences.
	p.fence(e+1, "peer:1")
	if err := p.Put(testRecord("after-real-fence")); !errors.Is(err, vault.ErrNotPrimary) {
		t.Fatalf("higher-epoch fence did not depose: err=%v", err)
	}
	if got := p.Epoch(); got != e+1 {
		t.Fatalf("fenced epoch = %d, want %d", got, e+1)
	}
}
