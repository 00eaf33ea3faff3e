package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/dataset"
	"clickpass/internal/vault"
	"clickpass/internal/vault/repl"
)

// writeLoad: enrolls of fresh users and password changes, 1:1, over
// TCP to a quorum-replicated pair of durable stores (fsync=always,
// default shards and compaction) in one process. A change verifies the
// old password, so an account's changes go to one connection, in
// order; the model tracks each account's current password.
type writeLoad struct {
	c    serveConfig
	seed uint64
	base string // parent of each run's durable directories
	rng  *rand.Rand
	accs []account
	cur  [][]dataset.Click // current password per account
	next int               // fresh users enrolled so far

	pair *replPair
	reqs []writeReq
}

type writeReq struct {
	change    bool
	acc       int // account changed, or -1 for an enroll
	user      string
	old, new_ []dataset.Click
}

func newWriteLoad(c serveConfig, seed uint64, base string) *writeLoad {
	return &writeLoad{c: c, seed: seed, base: base, rng: rand.New(rand.NewPCG(seed, 0x7772697465))}
}

// replPair is a primary and a follower in one process, each on its own
// durable directory.
type replPair struct {
	dir               string
	pdur, fdur        *vault.Durable
	primary, follower *repl.Node
}

func (p *replPair) maxLag() uint64 {
	var most uint64
	for _, f := range p.primary.Stats().Followers {
		most = max(most, f.LagRecords)
	}
	return most
}

func (p *replPair) close() error {
	err := errors.Join(p.primary.Close(), p.follower.Close(), p.pdur.Close(), p.fdur.Close())
	return errors.Join(err, os.RemoveAll(p.dir))
}

// openPair opens a fresh quorum pair under base and waits until the
// follower is attached.
func openPair(base string) (*replPair, error) {
	dir, err := os.MkdirTemp(base, "write-")
	if err != nil {
		return nil, err
	}
	p := &replPair{dir: dir}
	opts := vault.DurableOptions{Sync: vault.SyncAlways}
	if p.pdur, err = vault.OpenDurable(filepath.Join(dir, "primary"), opts); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	if p.fdur, err = vault.OpenDurable(filepath.Join(dir, "follower"), opts); err != nil {
		return nil, errors.Join(err, p.pdur.Close(), os.RemoveAll(dir))
	}
	quiet := func(string, ...any) {}
	if p.primary, err = repl.New(p.pdur, repl.RolePrimary, repl.Options{Listen: "127.0.0.1:0", Ack: repl.AckQuorum, Logf: quiet}); err != nil {
		return nil, errors.Join(err, p.pdur.Close(), p.fdur.Close(), os.RemoveAll(dir))
	}
	if p.follower, err = repl.New(p.fdur, repl.RoleFollower, repl.Options{Listen: "127.0.0.1:0", Primary: p.primary.ReplAddr(), Logf: quiet}); err != nil {
		return nil, errors.Join(err, p.primary.Close(), p.pdur.Close(), p.fdur.Close(), os.RemoveAll(dir))
	}
	for deadline := time.Now().Add(10 * time.Second); len(p.primary.Stats().Followers) == 0; {
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("follower did not attach"), p.close())
		}
		time.Sleep(time.Millisecond)
	}
	return p, nil
}

func (w *writeLoad) open() (*env, error) {
	if w.accs == nil {
		accs, err := accounts(w.c.Accounts, w.rng.Uint64(), "w")
		if err != nil {
			return nil, err
		}
		w.accs = accs
	}
	w.cur = make([][]dataset.Click, len(w.accs))
	for i, a := range w.accs {
		w.cur[i] = a.clicks
	}
	p, err := openPair(w.base)
	if err != nil {
		return nil, err
	}
	w.pair = p
	return &env{store: p.primary, kv: p.primary, watch: p.pdur.SetKVWatch, closeStore: p.close, lag: p.maxLag}, nil
}

func (w *writeLoad) httpConns() []bool { return nil }

func (w *writeLoad) populate(cs []authsvc.Client) error { return enrollAll(cs, w.accs) }

// prepare alternates pairs of enrolls and changes, so each connection
// sees the 1:1 mix. Account a is changed only on connection a mod
// conns, so a connection's own order is the order the model assumes.
func (w *writeLoad) prepare(n int) {
	w.reqs = w.reqs[:0]
	for k := 0; k < n; k++ {
		if (k/conns)%2 == 0 {
			w.next++
			src := w.accs[w.rng.IntN(len(w.accs))]
			w.reqs = append(w.reqs, writeReq{acc: -1, user: fmt.Sprintf("n%d-%d", w.seed, w.next), new_: src.clicks})
			continue
		}
		a := w.rng.IntN(len(w.accs)/conns)*conns + k%conns
		acc := &w.accs[a]
		// Alternate between the account's own password and a
		// neighbour's, so every change writes a different record.
		nw := acc.clicks
		if sameClicks(w.cur[a], acc.clicks) {
			nw = w.accs[(a+conns)%len(w.accs)].clicks
		}
		w.reqs = append(w.reqs, writeReq{change: true, acc: a, user: acc.user, old: w.cur[a], new_: nw})
		w.cur[a] = nw
	}
}

func sameClicks(a, b []dataset.Click) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *writeLoad) do(c authsvc.Client, k int) (authsvc.Response, error) {
	r := w.reqs[k]
	req := authsvc.Request{Op: authsvc.OpEnroll, User: r.user, Clicks: r.new_}
	if r.change {
		req = authsvc.Request{Op: authsvc.OpChange, User: r.user, Clicks: r.old, NewClicks: r.new_}
	}
	resp, err := c.Do(context.Background(), req)
	if err != nil {
		return resp, err
	}
	if resp.Code != authsvc.CodeOK {
		return resp, fmt.Errorf("%s %s: got %s %s", req.Op, r.user, resp.Code, resp.Err)
	}
	return resp, nil
}

func (w *writeLoad) user(k int) string { return w.reqs[k].user }

// finish checks that the follower's records, lockouts and KV are
// byte-identical to the primary's, as quorum acks promise; the last
// acked write may still be applying, so it polls briefly.
func (w *writeLoad) finish(e *env, res *result) {
	var diff string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if diff = pairDiff(w.pair); diff == "" || time.Now().After(deadline) {
			break
		}
	}
	res.attempted++
	res.check(diff == "", "follower differs from primary: %s", diff)
	res.note("replica check: %d records, follower identical: %v", w.pair.pdur.Len(), diff == "")
}

func pairDiff(p *replPair) string {
	enc := func(v any) []byte {
		b, _ := json.Marshal(v) // records, counters and blobs always marshal
		return b
	}
	switch {
	case !bytes.Equal(enc(p.pdur.All()), enc(p.fdur.All())):
		return fmt.Sprintf("records (%d vs %d)", p.pdur.Len(), p.fdur.Len())
	case !bytes.Equal(enc(p.pdur.Lockouts()), enc(p.fdur.Lockouts())):
		return "lockouts"
	case !bytes.Equal(enc(p.pdur.KVRange("")), enc(p.fdur.KVRange(""))):
		return "kv"
	}
	return ""
}
