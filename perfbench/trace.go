package main

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

// span is one timed call into a layer, recorded by the benchmark
// around the package's public function.
type span struct {
	kind       string // log, mint, validate, revoke, get, put, replace, setlockout, setkv
	user       string
	start, end time.Time
	queue      time.Duration // log spans: the admission wait
}

// tracer keeps spans in memory until the run ends. It is also the
// server's request-log writer: each structured log line becomes the
// span of the server's handling of that request.
type tracer struct {
	mu    sync.Mutex
	spans []span
	logs  []logRec
}

type logRec struct {
	at   time.Time
	line []byte
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<16), logs: make([]logRec, 0, 1<<15)}
}

func (t *tracer) add(kind, user string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, user: user, start: start, end: end})
	t.mu.Unlock()
}

// Write receives one WithLog line; parsing waits until the run ends.
func (t *tracer) Write(p []byte) (int, error) {
	at := time.Now()
	line := append([]byte(nil), p...)
	t.mu.Lock()
	t.logs = append(t.logs, logRec{at, line})
	t.mu.Unlock()
	return len(p), nil
}

// all returns every span, the log lines turned into spans from their
// lat_us and queue_us fields.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for _, l := range t.logs {
		var v struct {
			User    string `json:"user"`
			LatUs   int64  `json:"lat_us"`
			QueueUs int64  `json:"queue_us"`
		}
		if json.Unmarshal(l.line, &v) != nil {
			continue
		}
		out = append(out, span{kind: "log", user: v.User, start: l.at.Add(-time.Duration(v.LatUs) * time.Microsecond),
			end: l.at, queue: time.Duration(v.QueueUs) * time.Microsecond})
	}
	return out
}

// tracedStore times every vault.Store call. It forwards only the
// Store methods; wrapStore adds the optional extensions the inner
// store has, so the service and session tier see exactly the
// interfaces they would see untraced. Errors pass through unwrapped,
// so errors.As still finds a *vault.NotPrimaryError.
type tracedStore struct {
	vault.Store
	t *tracer
}

func (s tracedStore) Get(user string) (*passpoints.Record, error) {
	t0 := time.Now()
	rec, err := s.Store.Get(user)
	s.t.add("get", user, t0)
	return rec, err
}

func (s tracedStore) Put(rec *passpoints.Record) error {
	t0 := time.Now()
	err := s.Store.Put(rec)
	s.t.add("put", rec.User, t0)
	return err
}

func (s tracedStore) Replace(rec *passpoints.Record) error {
	t0 := time.Now()
	err := s.Store.Replace(rec)
	s.t.add("replace", rec.User, t0)
	return err
}

type tracedLockouts struct {
	inner vault.LockoutStore
	t     *tracer
}

func (s tracedLockouts) SetLockout(user string, failures int) error {
	t0 := time.Now()
	err := s.inner.SetLockout(user, failures)
	s.t.add("setlockout", user, t0)
	return err
}

func (s tracedLockouts) Lockouts() map[string]int { return s.inner.Lockouts() }

type tracedKV struct {
	inner vault.KVStore
	t     *tracer
}

// revPrefix is the session tier's revocation key prefix; the suffix
// names the user, which ties the write to its request.
const revPrefix = "session/rev/"

func (s tracedKV) SetKV(key string, val []byte) error {
	t0 := time.Now()
	err := s.inner.SetKV(key, val)
	s.t.add("setkv", strings.TrimPrefix(key, revPrefix), t0)
	return err
}

func (s tracedKV) GetKV(key string) ([]byte, bool)            { return s.inner.GetKV(key) }
func (s tracedKV) KVRange(prefix string) map[string][]byte    { return s.inner.KVRange(prefix) }
func (s tracedKV) SetKVWatch(fn func(key string, val []byte)) { s.inner.SetKVWatch(fn) }

// wrapStore returns s with every call timed, implementing
// vault.LockoutStore and vault.KVStore exactly when s does.
func (t *tracer) wrapStore(s vault.Store) vault.Store {
	base := tracedStore{s, t}
	locks, hasLocks := s.(vault.LockoutStore)
	kv, hasKV := s.(vault.KVStore)
	switch {
	case hasLocks && hasKV:
		return struct {
			tracedStore
			tracedLockouts
			tracedKV
		}{base, tracedLockouts{locks, t}, tracedKV{kv, t}}
	case hasLocks:
		return struct {
			tracedStore
			tracedLockouts
		}{base, tracedLockouts{locks, t}}
	case hasKV:
		return struct {
			tracedStore
			tracedKV
		}{base, tracedKV{kv, t}}
	}
	return base
}

// tracedTier times the session tier's calls.
type tracedTier struct {
	inner authsvc.SessionTier
	t     *tracer
}

func (s tracedTier) Mint(user string) (string, error) {
	t0 := time.Now()
	tok, err := s.inner.Mint(user)
	s.t.add("mint", user, t0)
	return tok, err
}

func (s tracedTier) Validate(token string) (string, error) {
	t0 := time.Now()
	user, err := s.inner.Validate(token)
	s.t.add("validate", user, t0)
	return user, err
}

func (s tracedTier) Revoke(user string) error {
	t0 := time.Now()
	err := s.inner.Revoke(user)
	s.t.add("revoke", user, t0)
	return err
}

func (t *tracer) wrapSession(s authsvc.SessionTier) authsvc.SessionTier { return tracedTier{s, t} }

// reqTrace is one client request with the server spans matched to it.
type reqTrace struct {
	user            string
	http            bool
	due, sent, done time.Time
	log             *span
	spans           []*span
}

func (r *reqTrace) contains(s *span) bool {
	return !s.start.Before(r.sent) && !s.end.After(r.done)
}

// attribute matches server spans to client requests and reports the
// per-layer metrics. A server span belongs to the client request that
// carries the same user and whose interval contains it; a log line of
// a request without a user (validate) goes to the containing request
// whose session span it contains. Per request, the layers' self times
// partition the due-time latency:
//
//	loadgen wait (due → sent) + authproto wire (round trip − handler)
//	+ authsvc queue + authsvc self + session self + vault
//
// The table reports each layer's mean over the requests between the
// 40th and 60th latency percentiles, and the unattributed row is the
// client-observed median minus their sum.
func attribute(res *result, tr *tracer, ld serveLoad, samples []sample, start time.Time, conns int) {
	httpConns := ld.httpConns()
	reqs := make([]*reqTrace, len(samples))
	byUser := map[string][]*reqTrace{}
	for k, s := range samples {
		r := &reqTrace{user: ld.user(k), due: start.Add(s.due), sent: start.Add(s.sent), done: start.Add(s.done)}
		r.http = k%conns < len(httpConns) && httpConns[k%conns]
		reqs[k] = r
		byUser[r.user] = append(byUser[r.user], r)
	}
	bySent := append([]*reqTrace(nil), reqs...)
	sort.Slice(bySent, func(i, j int) bool { return bySent[i].sent.Before(bySent[j].sent) })
	containing := func(s *span) []*reqTrace {
		i := sort.Search(len(bySent), func(i int) bool { return bySent[i].sent.After(s.start) })
		var out []*reqTrace
		for j := i - 1; j >= 0 && j >= i-4*conns; j-- {
			if bySent[j].contains(s) {
				out = append(out, bySent[j])
			}
		}
		return out
	}

	spans := tr.all()
	var logs []*span
	durs := map[string][]float64{}
	unmatched := 0
	for i := range spans {
		s := &spans[i]
		if s.kind != "log" {
			durs[s.kind] = append(durs[s.kind], us(s.end.Sub(s.start)))
		}
		if s.kind == "log" && s.user == "" {
			logs = append(logs, s)
			continue
		}
		var owner *reqTrace
		for _, r := range byUser[s.user] {
			if r.contains(s) {
				owner = r
				break
			}
		}
		switch {
		case owner == nil:
			unmatched++
		case s.kind == "log":
			owner.log = s
		default:
			owner.spans = append(owner.spans, s)
		}
	}
	for _, s := range logs {
		cands := containing(s)
		var owner *reqTrace
		for _, r := range cands {
			if r.log != nil {
				continue
			}
			if owner == nil {
				owner = r
			}
			for _, c := range r.spans {
				if !c.start.Before(s.start) && !c.end.After(s.end) {
					owner = r
				}
			}
		}
		if owner == nil {
			unmatched++
			continue
		}
		owner.log = s
	}

	type parts struct{ lat, wait, rtt, handle, wire, queue, svc, sess, vlt float64 }
	all := make([]parts, 0, len(reqs))
	var rtt, rttTCP, rttHTTP, wireTCP, wireHTTP, handle []float64
	noLog := 0
	for _, r := range reqs {
		p := parts{lat: us(r.done.Sub(r.due)), wait: us(r.sent.Sub(r.due)), rtt: us(r.done.Sub(r.sent))}
		if r.log != nil {
			p.handle = us(r.log.end.Sub(r.log.start))
			p.queue = us(r.log.queue)
		} else {
			noLog++
		}
		var sessions []*span
		for _, s := range r.spans {
			switch s.kind {
			case "mint", "validate", "revoke":
				sessions = append(sessions, s)
				p.sess += us(s.end.Sub(s.start))
			}
		}
		for _, s := range r.spans {
			switch s.kind {
			case "mint", "validate", "revoke":
				continue
			}
			d := us(s.end.Sub(s.start))
			p.vlt += d
			for _, ss := range sessions {
				if !s.start.Before(ss.start) && !s.end.After(ss.end) {
					p.sess -= d // a revocation's KV write is vault time
				}
			}
		}
		p.wire = p.rtt - p.handle
		// The log line's latency is whole microseconds; the parts inside
		// it are not, so clamp the handler's own time at zero.
		p.svc = max(0, p.handle-p.queue-p.sess-p.vlt)
		all = append(all, p)
		rtt = append(rtt, p.rtt)
		handle = append(handle, p.handle)
		if r.http {
			rttHTTP, wireHTTP = append(rttHTTP, p.rtt), append(wireHTTP, p.wire)
		} else {
			rttTCP, wireTCP = append(rttTCP, p.rtt), append(wireTCP, p.wire)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lat < all[j].lat })
	lo, hi := len(all)*40/100, max(len(all)*60/100, len(all)*40/100+1)
	band := all[lo:min(hi, len(all))]
	mean := func(f func(parts) float64) float64 {
		s := 0.0
		for _, p := range band {
			s += f(p)
		}
		return s / float64(len(band))
	}
	lats := make([]float64, len(all))
	for i, p := range all {
		lats[i] = p.lat
	}
	p50 := median(lats)
	res.rowTotal = p50
	res.rows = []row{
		{"loadgen (due -> sent)", mean(func(p parts) float64 { return p.wait })},
		{"authproto (wire + codec)", mean(func(p parts) float64 { return p.wire })},
		{"authsvc queue", mean(func(p parts) float64 { return p.queue })},
		{"authsvc self", mean(func(p parts) float64 { return p.svc })},
		{"session", mean(func(p parts) float64 { return p.sess })},
		{"vault (+ repl)", mean(func(p parts) float64 { return p.vlt })},
	}
	sum := 0.0
	for _, r := range res.rows {
		sum += r.us
	}
	names := []string{"loadgen.wait_us", "authproto.wire_us", "authsvc.queue_us", "authsvc.self_us", "session.self_us", "vault.self_us"}
	for i, n := range names {
		res.layer(n, res.rows[i].us, "us")
	}
	res.layer("client.p50_us", p50, "us")
	res.layer("unattributed_us", p50-sum, "us")
	res.layer("authproto.rtt_us", median(rtt), "us")
	res.layer("authproto.rtt_n", float64(len(rtt)), "count")
	res.layer("authproto.wire_tcp_us", median(wireTCP), "us")
	res.layer("authproto.wire_http_us", median(wireHTTP), "us")
	res.layer("authsvc.handle_us", median(handle), "us")
	for _, k := range []string{"mint", "validate", "revoke", "get", "put", "replace", "setlockout", "setkv"} {
		layer := "vault."
		if k == "mint" || k == "validate" || k == "revoke" {
			layer = "session."
		}
		if len(durs[k]) > 0 {
			res.layer(layer+k+"_us", median(durs[k]), "us")
		}
		res.layer(layer+k+"_n", float64(len(durs[k])), "count")
	}
	if len(rttHTTP) > 0 {
		res.note("rtt median: tcp %.1f us, http %.1f us", median(rttTCP), median(rttHTTP))
	}
	res.note("trace: %d requests, %d spans, %d unmatched spans, %d requests without a log line", len(reqs), len(spans), unmatched, noLog)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
