package repl

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"clickpass/internal/vault"
)

// newRunID returns a fresh nonzero random stream-incarnation id.
// Random so ids from different primaries (or the same node across
// promotions) can never collide and alias a follower's resume floor
// onto the wrong stream.
func newRunID() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("repl: generating run id: %w", err)
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id, nil
}

// bufEntry is one retained stream record.
type bufEntry struct {
	seq   uint64
	frame []byte
}

// shardBuf is one shard's bounded retention buffer: the recent tail
// of the shard's stream a reconnecting follower can resume from
// without a re-bootstrap. Entries are ascending by seq (gaps legal —
// a failed batch consumes seqs that are never shipped).
type shardBuf struct {
	entries []bufEntry
	bytes   int
	// trimmedThrough is the highest seq the retention trim has
	// discarded (0 when nothing was ever trimmed). A cursor at or below
	// it may be owed a trimmed committed record, so resuming it from
	// the retained tail could silently skip acked writes — such a
	// follower must re-bootstrap from a snapshot instead.
	trimmedThrough uint64
}

// qwaiter is one quorum-mode writer waiting for follower coverage of
// (shard, seq). Exactly one sender delivers on ch (buffered): the ack
// path sends nil, close sends the cause; the timeout path removes the
// waiter under the lock first, so a waiter still in the list has not
// been signaled.
type qwaiter struct {
	shard int
	seq   uint64
	ch    chan error
}

// pconn is one attached follower connection. wmu serializes writers
// (the sender loop and the heartbeat ticker share the socket).
type pconn struct {
	c     net.Conn
	addr  string
	wmu   sync.Mutex
	acked []uint64 // per-shard acknowledged seq (guarded by primaryState.mu)
	dead  bool     // reader saw an error; sender must exit (guarded by primaryState.mu)
}

// write frames and writes one message with a write deadline, so a
// wedged follower link errors out instead of blocking the sender
// forever.
func (pc *pconn) write(m *wireMsg, timeout time.Duration) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	_ = pc.c.SetWriteDeadline(time.Now().Add(timeout))
	return writeMsg(pc.c, m)
}

// primaryState is the stream machinery of an acting primary: the
// listener, the attached follower connections, the per-shard
// retention buffers, and the quorum waiters. Its mutex is leaf-level:
// nothing is called under it that can take a vault shard lock, and
// the vault commit hook (which runs under a shard lock) only copies
// bytes in.
type primaryState struct {
	n  *Node
	ln net.Listener

	mu      sync.Mutex
	cond    *sync.Cond // broadcast: new entries, acks, conn changes, close
	conns   map[*pconn]struct{}
	bufs    []shardBuf
	head    []uint64 // last shipped seq per shard
	ackHigh []uint64 // max acked seq per shard across all followers
	waiters []*qwaiter
	closed  bool
	cause   error // why close ran; what later quorum waiters get
}

// startPrimaryLocked starts the primary machinery: listener, accept
// loop, and the store's replication hooks. Caller holds n.mu.
func (n *Node) startPrimaryLocked() error {
	ln, err := net.Listen("tcp", n.opts.Listen)
	if err != nil {
		return fmt.Errorf("repl: listening on %s: %w", n.opts.Listen, err)
	}
	ps := &primaryState{
		n:       n,
		ln:      ln,
		conns:   make(map[*pconn]struct{}),
		bufs:    make([]shardBuf, n.shards),
		head:    make([]uint64, n.shards),
		ackHigh: make([]uint64, n.shards),
	}
	ps.cond = sync.NewCond(&ps.mu)
	n.pr = ps
	hooks := vault.ReplHooks{Commit: ps.commit}
	if n.opts.Ack == AckQuorum {
		hooks.QuorumWait = ps.quorumWait
	}
	n.store.SetReplHooks(hooks)
	n.wg.Add(1)
	go ps.acceptLoop()
	return nil
}

// close tears the primary machinery down and detaches it from the
// store, failing pending and later quorum waiters with cause. In
// quorum mode the store keeps quorumWait as its gate: a write that
// passed the role check before the teardown but commits after it must
// fail, not ack as replica-covered with no follower holding it (with
// the hook removed it would ack, and a promoted follower would lack
// it).
func (ps *primaryState) close(cause error) {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return
	}
	ps.closed = true
	ps.cause = cause
	for _, w := range ps.waiters {
		w.ch <- cause
	}
	ps.waiters = nil
	for pc := range ps.conns {
		pc.c.Close()
	}
	ps.cond.Broadcast()
	ps.mu.Unlock()
	ps.ln.Close()
	var hooks vault.ReplHooks
	if ps.n.opts.Ack == AckQuorum {
		hooks.QuorumWait = ps.quorumWait
	}
	ps.n.store.SetReplHooks(hooks)
}

// commit is the vault's ReplHooks.Commit sink: it labels the batch's
// frames with their sequence numbers and appends them to the shard's
// retention buffer. Runs under the vault shard lock — copy, enqueue,
// wake senders, return.
func (ps *primaryState) commit(shard int, frames []byte, lastSeq uint64) {
	split, err := vault.SplitFrames(frames)
	if err != nil || len(split) == 0 {
		// Cannot happen for frames the store itself encoded; refuse to
		// guess at labeling if it somehow does.
		if err != nil {
			ps.n.opts.Logf("repl: dropping unsplittable commit batch (shard %d): %v", shard, err)
		}
		return
	}
	first := lastSeq - uint64(len(split)) + 1
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return
	}
	b := &ps.bufs[shard]
	for k, fr := range split {
		cp := append([]byte(nil), fr...)
		b.entries = append(b.entries, bufEntry{seq: first + uint64(k), frame: cp})
		b.bytes += len(cp)
	}
	ps.head[shard] = lastSeq
	for b.bytes > ps.n.opts.RetainBytes && len(b.entries) > 0 {
		b.bytes -= len(b.entries[0].frame)
		b.trimmedThrough = b.entries[0].seq
		b.entries[0] = bufEntry{}
		b.entries = b.entries[1:]
	}
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// quorumWait is the vault's ReplHooks.QuorumWait hook: block the
// writer until a follower acknowledges (shard, seq) or the quorum
// timeout passes. Called with no locks held.
func (ps *primaryState) quorumWait(shard int, seq uint64) error {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return ps.cause
	}
	if ps.ackHigh[shard] >= seq {
		ps.mu.Unlock()
		return nil
	}
	w := &qwaiter{shard: shard, seq: seq, ch: make(chan error, 1)}
	ps.waiters = append(ps.waiters, w)
	ps.mu.Unlock()
	t := time.NewTimer(ps.n.opts.QuorumTimeout)
	defer t.Stop()
	select {
	case err := <-w.ch:
		return err
	case <-t.C:
		ps.mu.Lock()
		for i, x := range ps.waiters {
			if x == w {
				ps.waiters = append(ps.waiters[:i], ps.waiters[i+1:]...)
				ps.mu.Unlock()
				return fmt.Errorf("repl: no follower acknowledged shard %d seq %d within %v (write is locally durable, not replica-covered)",
					shard, seq, ps.n.opts.QuorumTimeout)
			}
		}
		ps.mu.Unlock()
		// A signaler removed us concurrently; its verdict is on ch.
		return <-w.ch
	}
}

// ack folds a follower acknowledgement in, waking satisfied quorum
// waiters.
func (ps *primaryState) ack(pc *pconn, shard int, seq uint64) {
	if shard < 0 || shard >= len(ps.ackHigh) {
		return
	}
	ps.mu.Lock()
	if seq > pc.acked[shard] {
		pc.acked[shard] = seq
	}
	if seq > ps.ackHigh[shard] {
		ps.ackHigh[shard] = seq
		keep := ps.waiters[:0]
		for _, w := range ps.waiters {
			if w.shard == shard && w.seq <= seq {
				w.ch <- nil
			} else {
				keep = append(keep, w)
			}
		}
		for i := len(keep); i < len(ps.waiters); i++ {
			ps.waiters[i] = nil
		}
		ps.waiters = keep
	}
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// acceptLoop accepts follower connections until the listener closes.
func (ps *primaryState) acceptLoop() {
	defer ps.n.wg.Done()
	for {
		c, err := ps.ln.Accept()
		if err != nil {
			return
		}
		ps.n.wg.Add(1)
		go ps.handleConn(c)
	}
}

// handleConn runs one follower connection: handshake, bootstrap
// decision, then the sender loop (the ack reader and heartbeat run as
// side goroutines). A hello bearing a higher epoch is a fence and
// deposes this node.
func (ps *primaryState) handleConn(c net.Conn) {
	n := ps.n
	defer n.wg.Done()
	defer c.Close()
	br := bufio.NewReader(c)
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hello wireMsg
	if err := readMsg(br, &hello); err != nil || hello.Type != msgHello {
		return
	}
	_ = c.SetReadDeadline(time.Time{})
	n.mu.Lock()
	epoch, runID, fenced := n.epoch, n.runID, n.fenced
	n.mu.Unlock()
	if hello.Epoch > epoch {
		n.fence(hello.Epoch, hello.Advertise)
		return
	}
	if fenced {
		return
	}
	if hello.Shards != 0 && hello.Shards != n.shards {
		n.opts.Logf("repl: refusing follower %s: shard count %d != ours %d", c.RemoteAddr(), hello.Shards, n.shards)
		return
	}
	pc := &pconn{c: c, addr: c.RemoteAddr().String(), acked: make([]uint64, n.shards)}
	welcome := wireMsg{Type: msgWelcome, Epoch: epoch, RunID: runID, Shards: n.shards, Advertise: n.opts.Advertise}
	if err := pc.write(&welcome, n.opts.QuorumTimeout); err != nil {
		return
	}
	// Cursor: the next seq each shard owes this follower. 0 means the
	// shard needs a snapshot bootstrap first.
	next := make([]uint64, n.shards)
	if hello.RunID == runID && len(hello.Seqs) == n.shards {
		for s := range next {
			next[s] = hello.Seqs[s] + 1
		}
	}
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return
	}
	if len(ps.conns) > 0 {
		// Exactly one follower per primary: quorum release keys on the
		// MAX acked seq across attached connections, so with two
		// followers a write acks once the faster one has it — and is
		// silently lost if the slower one is later promoted. Until
		// multi-follower quorums are a designed feature (see
		// ROADMAP.md), a second concurrent follower is refused loudly
		// rather than admitted into undefined behavior.
		for other := range ps.conns {
			n.opts.Logf("repl: REFUSING follower %s: follower %s is already attached and single-follower quorum would be unsound with both", pc.addr, other.addr)
		}
		ps.mu.Unlock()
		return
	}
	ps.conns[pc] = struct{}{}
	ps.mu.Unlock()
	defer func() {
		ps.mu.Lock()
		delete(ps.conns, pc)
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}()
	n.opts.Logf("repl: follower %s attached (resume=%v)", pc.addr, next[0] != 0 || n.shards == 0)

	// Ack reader: folds acks in until the conn dies, then wakes the
	// sender so it exits too.
	go func() {
		for {
			var m wireMsg
			if err := readMsg(br, &m); err != nil {
				break
			}
			if m.Type == msgAck {
				ps.ack(pc, m.Shard, m.Seq)
			}
		}
		c.Close()
		ps.mu.Lock()
		pc.dead = true
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}()

	// Heartbeat: keeps the follower's staleness clock fresh when the
	// stream is idle.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(n.opts.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if pc.write(&wireMsg{Type: msgPing}, n.opts.Heartbeat+2*time.Second) != nil {
					c.Close()
					return
				}
			}
		}
	}()

	ps.senderLoop(pc, next)
}

// senderAction is one unit of work the sender owes a follower.
type senderAction struct {
	shard    int
	snapshot bool
	frames   []byte // concatenated retained frames (snapshot == false)
	lastSeq  uint64
}

// collectWork scans the retention buffers for everything the follower
// at cursor `next` is owed. Caller holds ps.mu. next[s] == 0 requests
// a snapshot; a cursor that points below the buffer's retained floor
// escalates to a snapshot too (the follower fell behind the bounded
// buffer).
func (ps *primaryState) collectWork(next []uint64) []senderAction {
	var actions []senderAction
	for s := range next {
		if next[s] == 0 {
			actions = append(actions, senderAction{shard: s, snapshot: true})
			continue
		}
		if ps.head[s] < next[s] {
			continue // fully caught up
		}
		b := &ps.bufs[s]
		if next[s] <= b.trimmedThrough {
			// The trim discarded committed records at or past the
			// cursor: the retained tail may start above it, but shipping
			// from there would silently skip the trimmed records (and in
			// quorum mode release their waiters on the batch's high
			// ack). The follower fell behind the bounded buffer;
			// re-bootstrap it.
			actions = append(actions, senderAction{shard: s, snapshot: true})
			continue
		}
		// Find the first retained entry at or past the cursor. Any gap
		// between the cursor and that entry is now provably a failed
		// batch's never-shipped seqs, not trimmed data.
		idx := -1
		for k := range b.entries {
			if b.entries[k].seq >= next[s] {
				idx = k
				break
			}
		}
		if idx < 0 {
			// head advanced past the cursor but nothing is retained:
			// the tail was trimmed out from under this follower.
			actions = append(actions, senderAction{shard: s, snapshot: true})
			continue
		}
		var frames []byte
		last := uint64(0)
		for _, e := range b.entries[idx:] {
			frames = append(frames, e.frame...)
			last = e.seq
		}
		actions = append(actions, senderAction{shard: s, frames: frames, lastSeq: last})
	}
	return actions
}

// senderLoop streams snapshots and frames to one follower until the
// connection dies or the primary shuts down.
func (ps *primaryState) senderLoop(pc *pconn, next []uint64) {
	n := ps.n
	for {
		ps.mu.Lock()
		var actions []senderAction
		for {
			if ps.closed || pc.dead {
				ps.mu.Unlock()
				return
			}
			actions = ps.collectWork(next)
			if len(actions) > 0 {
				break
			}
			ps.cond.Wait()
		}
		ps.mu.Unlock()
		for _, a := range actions {
			if a.snapshot {
				recs, locks, kv, seq, err := n.store.ShardSnapshot(a.shard)
				if err != nil {
					n.opts.Logf("repl: snapshotting shard %d for %s: %v", a.shard, pc.addr, err)
					pc.c.Close()
					return
				}
				m := wireMsg{Type: msgSnapshot, Shard: a.shard, Seq: seq, Records: recs, Lockouts: locks, KV: kv}
				if err := pc.write(&m, n.opts.QuorumTimeout); err != nil {
					pc.c.Close()
					return
				}
				next[a.shard] = seq + 1
				continue
			}
			m := wireMsg{Type: msgFrames, Shard: a.shard, Seq: a.lastSeq, Frames: a.frames}
			if err := pc.write(&m, n.opts.QuorumTimeout); err != nil {
				pc.c.Close()
				return
			}
			next[a.shard] = a.lastSeq + 1
		}
	}
}
