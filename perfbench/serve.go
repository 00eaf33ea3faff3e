package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"clickpass/internal/authproto"
	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/imagegen"
	"clickpass/internal/passpoints"
	"clickpass/internal/replay"
	"clickpass/internal/session"
	"clickpass/internal/study"
	"clickpass/internal/vault"
)

// Server settings are pwserver's defaults. The load uses two
// connections, one per vCPU of the machine the figures were recorded
// on. The untraced run measures in rounds of an open-loop block of
// openBlock seconds at the nominal rate and a closed-loop block of the
// workload's closed_block requests, which workloads.json sizes to take
// about closedBlock seconds; the traced run spends half of --seconds
// on its traced phase.
const (
	conns        = 2
	nominalShare = 0.5
	openBlock    = 1.0
	closedBlock  = 0.4

	gridSide   = 13
	iterations = 1000
	sessionTTL = time.Hour
)

func passConfig() passpoints.Config {
	scheme, err := core.NewCentered(gridSide)
	if err != nil {
		panic(err) // a constant side that the scheme rejects is a bug
	}
	return passpoints.Config{Image: imagegen.StudySize, Clicks: passpoints.DefaultClicks,
		Scheme: scheme, Iterations: iterations}
}

// env is a workload's storage: what the server fronts, and how to
// release it.
type env struct {
	store vault.Store
	// kv persists the session tier and watch subscribes it to
	// replicated key writes; both are nil on the in-memory store.
	kv         session.KV
	watch      func(fn func(key string, val []byte))
	closeStore func() error
	sess       *session.Manager // shared by the env's servers when kv is nil
	lag        func() uint64    // replication lag in records; nil unreplicated
}

func (e *env) close() error {
	if e.sess != nil {
		e.sess.Close()
	}
	return e.closeStore()
}

// session returns the session tier for a server whose store view is
// kv. A store with a KV persists the signing keys, so each server gets
// its own manager and still honours the others' tokens, as across a
// restart (own reports that the server must close it). Without one the
// keys live only in the manager, so the env's servers share one.
func (e *env) session(kv session.KV) (m *session.Manager, own bool, err error) {
	if e.kv == nil && e.sess != nil {
		return e.sess, false, nil
	}
	m, err = session.New(session.Options{Alg: session.AlgEd25519, TTL: sessionTTL, Store: kv})
	if err != nil {
		return nil, false, err
	}
	if e.watch != nil {
		e.watch(m.ApplyKV)
		if err := m.Reseed(); err != nil {
			m.Close()
			return nil, false, err
		}
	}
	m.Start()
	if e.kv == nil {
		e.sess = m
		return m, false, nil
	}
	return m, true, nil
}

// server is one in-process server on loopback.
type server struct {
	srv      *authproto.Server
	tcpAddr  string
	httpURL  string
	shutdown func() error
}

// startServer builds a server over e from the public constructors with
// pwserver's defaults: centered scheme, side 13, 1000 iterations,
// lockout 10, an Ed25519 session tier with a 1 h TTL and the default
// overload policy. A non-nil tracer wraps the store and session tier
// and reads the request log.
func startServer(e *env, tr *tracer, withHTTP bool) (*server, error) {
	store, kv := e.store, e.kv
	if tr != nil {
		store = tr.wrapStore(store)
		if kv != nil {
			kv = store.(session.KV)
		}
	}
	srv, err := authproto.NewServer(passConfig(), store, authproto.DefaultLockout)
	if err != nil {
		return nil, err
	}
	sess, own, err := e.session(kv)
	if err != nil {
		return nil, err
	}
	closeSess := func() {
		if own {
			sess.Close()
		}
	}
	var tier authsvc.SessionTier = sess
	if tr != nil {
		tier = tr.wrapSession(sess)
		srv.SetLogWriter(tr)
	}
	srv.SetSession(tier)
	srv.SetMaxConns(authproto.DefaultMaxConns)
	srv.SetOverload(authsvc.OverloadPolicy{Queue: 4 * authproto.DefaultMaxConns, RetryAfter: authsvc.DefaultRetryAfter})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeSess()
		return nil, err
	}
	s := &server{srv: srv, tcpAddr: l.Addr().String()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(l) // returns once Shutdown has drained it
	}()
	var hs *http.Server
	if withHTTP {
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = srv.Shutdown(context.Background())
			wg.Wait()
			closeSess()
			return nil, err
		}
		s.httpURL = "http://" + hl.Addr().String()
		hs = &http.Server{Handler: srv.HTTPHandler()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = hs.Serve(hl) // ErrServerClosed after Shutdown
		}()
	}
	s.shutdown = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if hs != nil {
			err = errors.Join(err, hs.Shutdown(ctx))
		}
		wg.Wait()
		closeSess()
		return err
	}
	return s, nil
}

// dial opens the workload's connections: framed TCP, except that
// connections marked in httpConns speak HTTP/JSON.
func (s *server) dial(conns int, http []bool) ([]authsvc.Client, error) {
	var out []authsvc.Client
	for w := 0; w < conns; w++ {
		if w < len(http) && http[w] {
			out = append(out, authproto.NewHTTPClient(s.httpURL, oneConnHTTP()))
			continue
		}
		c, err := authproto.DialService(s.tcpAddr, 5*time.Second)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// oneConnHTTP is an HTTP client held to one keep-alive connection, the
// shape of one framed-TCP connection.
func oneConnHTTP() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func closeAll(cs []authsvc.Client) {
	for _, c := range cs {
		_ = c.Close()
	}
}

// account is one generated user: its enrolled clicks and the
// simulator's re-entries of them.
type account struct {
	user   string
	clicks []dataset.Click
	logins [][]dataset.Click
}

// accounts generates n accounts from study.Stream, half on each study
// image, named prefix plus the password ID.
func accounts(n int, seed uint64, prefix string) ([]account, error) {
	var out []account
	for i, img := range imagegen.Gallery() {
		fc := study.FieldConfig(img, seed+uint64(i))
		fc.Passwords = n / 2
		if i == 0 {
			fc.Passwords = n - n/2
		}
		err := study.Stream(fc, func(pw dataset.Password, logins []dataset.Login) error {
			a := account{user: fmt.Sprintf("%s%d", prefix, pw.ID), clicks: pw.Clicks}
			for _, l := range logins {
				a.logins = append(a.logins, l.Clicks)
			}
			out = append(out, a)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("generating accounts: %w", err)
		}
	}
	return out, nil
}

// enrollAll enrolls accs over the connections, account i on connection
// i mod len(cs); every enroll must succeed.
func enrollAll(cs []authsvc.Client, accs []account) error {
	return forEach(cs, len(accs), func(c authsvc.Client, i int) error {
		resp, err := c.Enroll(context.Background(), accs[i].user, accs[i].clicks)
		if err != nil {
			return fmt.Errorf("enroll %s: %w", accs[i].user, err)
		}
		if resp.Code != authsvc.CodeOK {
			return fmt.Errorf("enroll %s: %s %s", accs[i].user, resp.Code, resp.Err)
		}
		return nil
	})
}

// forEach runs f for i in [0,n) with item i on connection i mod
// len(cs), the connections in parallel, and returns the first error.
func forEach(cs []authsvc.Client, n int, f func(c authsvc.Client, i int) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for w, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += len(cs) {
				if err := f(c, i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func points(cs []dataset.Click) []geom.Point {
	out := make([]geom.Point, len(cs))
	for i, c := range cs {
		out[i] = c.Point()
	}
	return out
}

// serveLoad is one serving workload: its storage, its enrolled
// population, and a generator of requests with the outcome each must
// have.
type serveLoad interface {
	// open creates fresh storage.
	open() (*env, error)
	// httpConns marks the connections that speak HTTP/JSON.
	httpConns() []bool
	// populate enrolls the population through the server.
	populate(cs []authsvc.Client) error
	// prepare generates the next n requests; they are numbered from 0.
	prepare(n int)
	// do sends request k over c and checks the response.
	do(c authsvc.Client, k int) (authsvc.Response, error)
	// user names the account request k carries, for span matching.
	user(k int) string
	// finish runs the end-of-run checks once the load has stopped.
	finish(e *env, res *result)
}

func needsHTTP(ld serveLoad) bool {
	for _, h := range ld.httpConns() {
		if h {
			return true
		}
	}
	return false
}

// runPhase sends n requests at rate and summarizes them.
func runPhase(ld serveLoad, cs []authsvc.Client, rate float64, n int, res *result) (phase, []sample, time.Time) {
	ld.prepare(n)
	s := schedule{rate: rate, n: n}
	errs := make([]error, n) // request k's slot is written by its connection only
	samples, start := drive(s, len(cs), func(w, k int) bool {
		_, errs[k] = ld.do(cs[w], k)
		return errs[k] == nil
	})
	res.attempted += n
	for k, err := range errs {
		if err != nil {
			res.fail("%.0f/s request %d: %v", rate, k, err)
		}
	}
	return summarize(s, len(cs), samples), samples, start
}

// runServe is a serving workload's run: setup (repeated; setup_s is the
// median), then either the untraced measurement or the traced one.
func runServe(ld serveLoad, c serveConfig, opt options) (*result, error) {
	res := newResult()
	var (
		e       *env
		sv      *server
		cs      []authsvc.Client
		setups  []float64
		release = func() {
			closeAll(cs)
			if sv != nil {
				_ = sv.shutdown()
			}
			if e != nil {
				_ = e.close()
			}
			cs, sv, e = nil, nil, nil
		}
	)
	defer release()
	withHTTP := needsHTTP(ld)
	for i := 0; i < c.Setups; i++ {
		release()
		t := time.Now()
		var err error
		if e, err = ld.open(); err != nil {
			return nil, err
		}
		if sv, err = startServer(e, nil, withHTTP); err != nil {
			return nil, err
		}
		if cs, err = sv.dial(conns, ld.httpConns()); err != nil {
			return nil, err
		}
		if err = ld.populate(cs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	res.put("setup_s", median(setups), "s")
	res.note("setup_s over %d setups: %s", len(setups), fmtList(setups, 4))

	if !opt.trace {
		measure(ld, cs, c, opt, res)
	} else if err := traced(ld, e, cs, c, opt, withHTTP, res); err != nil {
		return nil, err
	}
	ld.finish(e, res)
	return res, nil
}

// measure is the untraced measurement. One warm-up round, then as many
// rounds as fill --seconds, each an open-loop block of openBlock
// seconds at the nominal rate followed by a closed-loop block in which
// each connection sends its next request as soon as the previous one
// completes. The round count depends only on --seconds, so every run
// does the same work and write's store grows by the same amount.
// Each metric is the quietest quarter of its per-block values
// (quietLow, quietHigh): p50_ms and cpu_us_per_op from the open-loop
// blocks, max_rps from the closed-loop ones.
func measure(ld serveLoad, cs []authsvc.Client, c serveConfig, opt options, res *result) {
	openN := int(c.NominalRPS * openBlock)
	round := func() (open, closed phase, cpuPerOp float64) {
		cpu0 := cpuTime()
		open, _, _ = runPhase(ld, cs, c.NominalRPS, openN, res)
		cpuPerOp = (cpuTime() - cpu0).Seconds() * 1e6 / float64(openN)
		closed, _, _ = runPhase(ld, cs, math.Inf(1), c.ClosedBlock, res)
		return open, closed, cpuPerOp
	}
	round() // warm-up: connections, caches and the heap settle
	var p50s, p90s, cpus, rates, lat []float64
	var late time.Duration
	backlog := 0
	rounds := max(4, int(math.Ceil(opt.seconds.Seconds()/(openBlock+closedBlock))))
	probe := startProbe()
	for range rounds {
		open, closed, cpu := round()
		p50s = append(p50s, quantile(open.lat, 0.5))
		p90s = append(p90s, quantile(open.lat, tailQ))
		cpus = append(cpus, cpu)
		rates = append(rates, closed.rateDone())
		lat = append(lat, open.lat...)
		late, backlog = max(late, open.lateMax), max(backlog, open.backlog)
	}
	ps := probe.stop()
	res.put("p50_ms", quietLow(p50s), "ms")
	res.put("max_rps", quietHigh(rates), "1/s")
	res.put("cpu_us_per_op", quietLow(cpus), "us")
	res.put("peak_heap_mb", ps.peakHeapMB, "MB")
	res.note("%d rounds of %d requests at %.0f/s and %d back to back; over all open-loop requests p50 %.3f, p90 %.3f, p99 %.3f ms",
		len(p50s), openN, c.NominalRPS, c.ClosedBlock, median(lat), quantile(lat, tailQ), quantile(lat, 0.99))
	res.note("p50 per block %s ms", fmtList(p50s, 3))
	res.note("p90 per block %s ms", fmtList(p90s, 3))
	res.note("cpu per op per block %s us", fmtList(cpus, 1))
	res.note("back-to-back rate per block %s /s", fmtList(rates, 0))
	res.note("noise: host steal %.4f, generator lateness max %.3f ms, backlog max %d, gc pause %.3f ms",
		ps.steal, late.Seconds()*1e3, backlog, ps.gcPause.Seconds()*1e3)
}

// traced is the traced measurement: half a nominal phase on the plain
// server, for the tracing overhead, then a nominal phase on a second,
// traced server over the same storage.
func traced(ld serveLoad, e *env, cs []authsvc.Client, c serveConfig, opt options, withHTTP bool, res *result) error {
	nominalN := max(int(c.NominalRPS*opt.seconds.Seconds()*nominalShare), windowN)
	untraced, _, _ := runPhase(ld, cs, c.NominalRPS, nominalN/2, res)
	tr := newTracer()
	tsv, err := startServer(e, tr, withHTTP)
	if err != nil {
		return err
	}
	defer func() { _ = tsv.shutdown() }()
	tcs, err := tsv.dial(conns, ld.httpConns())
	if err != nil {
		return err
	}
	defer closeAll(tcs)
	sheds0 := tsv.srv.Metrics().Sheds()
	stopLag := sampleLag(e, res)
	probe := startProbe()
	p, samples, start := runPhase(ld, tcs, c.NominalRPS, nominalN, res)
	ps := probe.stop()
	stopLag()
	attribute(res, tr, ld, samples, start, conns)
	res.layer("trace.overhead_us", (median(p.lat)-median(untraced.lat))*1e3, "us")
	res.layer("client.p90_us", p.windowed(tailQ)*1e3, "us")
	res.layer("client.p99_us", p.windowed(0.99)*1e3, "us")
	res.layer("authsvc.sheds", float64(tsv.srv.Metrics().Sheds()-sheds0), "count")
	res.layer("proc.gc_pause_ms", ps.gcPause.Seconds()*1e3, "ms")
	res.layer("host.steal_frac", ps.steal, "ratio")
	res.layer("loadgen.late_ms", p.lateMax.Seconds()*1e3, "ms")
	res.layer("loadgen.backlog", float64(p.backlog), "count")
	res.note("untraced p50 %.1f us, traced p50 %.1f us", median(untraced.lat)*1e3, median(p.lat)*1e3)
	return nil
}

// sampleLag records the replication lag every few milliseconds until
// the returned stop is called, then stores its maximum.
func sampleLag(e *env, res *result) (stop func()) {
	if e.lag == nil {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	var most uint64
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				most = max(most, e.lag())
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		res.layer("repl.lag_records", float64(most), "count")
	}
}

func fmtList(xs []float64, prec int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.*f", prec, x)
	}
	return s
}

// --- login -----------------------------------------------------------

// loginLoad: logins with the simulator's re-entry clicks, so some are
// correctly denied. The in-process model (replay.Set.Accepts on the
// same enrollment) gives each outcome; an account is never left
// failing more than maxRun times in a row, far below the lockout, so
// every repetition does the same work.
type loginLoad struct {
	c     serveConfig
	rng   *rand.Rand
	accs  []account
	model *replay.Set
	fails []int // consecutive expected failures per account, in request order

	reqs   []int // account per request
	clicks [][]dataset.Click
	want   []bool
}

const maxRun = 3

func newLoginLoad(c serveConfig, seed uint64) *loginLoad {
	return &loginLoad{c: c, rng: rand.New(rand.NewPCG(seed, 0x6c6f67696e))}
}

func (l *loginLoad) open() (*env, error) {
	if l.accs == nil {
		accs, err := accounts(l.c.Accounts, l.rng.Uint64(), "u")
		if err != nil {
			return nil, err
		}
		pws := make([][]geom.Point, len(accs))
		for i, a := range accs {
			pws[i] = points(a.clicks)
		}
		l.accs, l.model, l.fails = accs, replay.CompilePoints(pws, passConfig().Scheme), make([]int, len(accs))
	}
	return &env{store: vault.NewSharded(0), closeStore: func() error { return nil }}, nil
}

func (l *loginLoad) httpConns() []bool { return nil }

func (l *loginLoad) populate(cs []authsvc.Client) error { return enrollAll(cs, l.accs) }

func (l *loginLoad) prepare(n int) {
	l.reqs, l.clicks, l.want = l.reqs[:0], l.clicks[:0], l.want[:0]
	for k := 0; k < n; k++ {
		a := l.rng.IntN(len(l.accs))
		acc := &l.accs[a]
		cl := acc.logins[l.rng.IntN(len(acc.logins))]
		ok := l.model.Accepts(a, points(cl))
		if !ok && l.fails[a] >= maxRun {
			cl, ok = acc.clicks, true
		}
		if ok {
			l.fails[a] = 0
		} else {
			l.fails[a]++
		}
		l.reqs, l.clicks, l.want = append(l.reqs, a), append(l.clicks, cl), append(l.want, ok)
	}
}

func (l *loginLoad) do(c authsvc.Client, k int) (authsvc.Response, error) {
	resp, err := c.Do(context.Background(), authsvc.Request{Op: authsvc.OpLogin, User: l.accs[l.reqs[k]].user, Clicks: l.clicks[k]})
	if err != nil {
		return resp, err
	}
	switch {
	case l.want[k] && (resp.Code != authsvc.CodeOK || resp.Token == ""):
		return resp, fmt.Errorf("login %s: got %s, model accepts", l.user(k), resp.Code)
	case !l.want[k] && resp.Code != authsvc.CodeDenied:
		return resp, fmt.Errorf("login %s: got %s, model denies", l.user(k), resp.Code)
	}
	return resp, nil
}

func (l *loginLoad) user(k int) string { return l.accs[l.reqs[k]].user }

func (l *loginLoad) finish(*env, *result) {}

// --- validate --------------------------------------------------------

// validateLoad: every request validates a session token minted during
// setup, alternating between a framed-TCP and an HTTP/JSON connection;
// each must name the account it was minted for.
type validateLoad struct {
	c      serveConfig
	rng    *rand.Rand
	accs   []account
	tokens []string
	reqs   []int
}

func newValidateLoad(c serveConfig, seed uint64) *validateLoad {
	return &validateLoad{c: c, rng: rand.New(rand.NewPCG(seed, 0x76616c6964))}
}

func (v *validateLoad) open() (*env, error) {
	if v.accs == nil {
		accs, err := accounts(v.c.Accounts, v.rng.Uint64(), "v")
		if err != nil {
			return nil, err
		}
		v.accs = accs
	}
	return &env{store: vault.NewSharded(0), closeStore: func() error { return nil }}, nil
}

func (v *validateLoad) httpConns() []bool { return []bool{false, true} }

// populate enrolls the accounts and logs each in once with its own
// clicks, keeping the minted tokens.
func (v *validateLoad) populate(cs []authsvc.Client) error {
	if err := enrollAll(cs, v.accs); err != nil {
		return err
	}
	v.tokens = make([]string, len(v.accs))
	return forEach(cs, len(v.accs), func(c authsvc.Client, i int) error {
		resp, err := c.Login(context.Background(), v.accs[i].user, v.accs[i].clicks)
		if err != nil {
			return err
		}
		if resp.Code != authsvc.CodeOK || resp.Token == "" {
			return fmt.Errorf("login %s: %s, token %q", v.accs[i].user, resp.Code, resp.Token)
		}
		v.tokens[i] = resp.Token
		return nil
	})
}

func (v *validateLoad) prepare(n int) {
	v.reqs = v.reqs[:0]
	for k := 0; k < n; k++ {
		v.reqs = append(v.reqs, v.rng.IntN(len(v.accs)))
	}
}

func (v *validateLoad) do(c authsvc.Client, k int) (authsvc.Response, error) {
	resp, err := c.Do(context.Background(), authsvc.Request{Op: authsvc.OpValidate, Token: v.tokens[v.reqs[k]]})
	if err != nil {
		return resp, err
	}
	if resp.Code != authsvc.CodeOK || resp.User != v.user(k) {
		return resp, fmt.Errorf("validate: got %s user %q, want ok %q", resp.Code, resp.User, v.user(k))
	}
	return resp, nil
}

func (v *validateLoad) user(k int) string { return v.accs[v.reqs[k]].user }

func (v *validateLoad) finish(*env, *result) {}
