package authproto

import (
	"context"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/session"
	"clickpass/internal/vault"
)

// countingStore wraps a vault.Store and counts every call — the probe
// behind the session tier's core claim: validating a token touches
// the store zero times.
type countingStore struct {
	vault.Store
	calls atomic.Int64
}

func (c *countingStore) Put(rec *passpoints.Record) error {
	c.calls.Add(1)
	return c.Store.Put(rec)
}

func (c *countingStore) Replace(rec *passpoints.Record) error {
	c.calls.Add(1)
	return c.Store.Replace(rec)
}

func (c *countingStore) Get(user string) (*passpoints.Record, error) {
	c.calls.Add(1)
	return c.Store.Get(user)
}

func (c *countingStore) Delete(user string) {
	c.calls.Add(1)
	c.Store.Delete(user)
}

func (c *countingStore) Users() []string {
	c.calls.Add(1)
	return c.Store.Users()
}

func (c *countingStore) Len() int {
	c.calls.Add(1)
	return c.Store.Len()
}

func (c *countingStore) All() []*passpoints.Record {
	c.calls.Add(1)
	return c.Store.All()
}

// sessionServer builds a server over a counting store with the
// session tier mounted.
func sessionServer(t *testing.T) (*Server, *countingStore, *session.Manager) {
	t.Helper()
	cs := &countingStore{Store: vault.NewSharded(0)}
	s, err := NewServer(testCfg(t), cs, 3)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := session.New(session.Options{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	s.SetSession(mgr)
	return s, cs, mgr
}

func testCfg(t *testing.T) passpoints.Config {
	t.Helper()
	scheme, err := core.NewCentered(13)
	if err != nil {
		t.Fatal(err)
	}
	return passpoints.Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     scheme,
		Iterations: 2,
	}
}

// TestSessionEndToEndTCP: login over real TCP returns a token; the
// token validates on the same front with zero store calls; a password
// change revokes it.
func TestSessionEndToEndTCP(t *testing.T) {
	s, cs, _ := sessionServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.Serve(l) }()

	c, err := DialService(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if resp, err := c.Enroll(ctx, "iris", clicks(0)); err != nil || !resp.OK() {
		t.Fatalf("enroll: %+v %v", resp, err)
	}
	login, err := c.Login(ctx, "iris", clicks(0))
	if err != nil || !login.OK() {
		t.Fatalf("login: %+v %v", login, err)
	}
	if login.Token == "" {
		t.Fatalf("session-enabled login returned no token")
	}

	before := cs.calls.Load()
	for i := 0; i < 50; i++ {
		resp, err := c.Validate(ctx, login.Token)
		if err != nil || !resp.OK() || resp.User != "iris" {
			t.Fatalf("validate %d: %+v %v", i, resp, err)
		}
	}
	if resp, err := c.Validate(ctx, "bogus"); err != nil || resp.Code != authsvc.CodeDenied {
		t.Fatalf("bogus validate: %+v %v", resp, err)
	}
	if got := cs.calls.Load(); got != before {
		t.Fatalf("validate path made %d store calls, want 0", got-before)
	}

	// Changing the password cuts off the old session.
	if resp, err := c.Change(ctx, "iris", clicks(0), clicks(1)); err != nil || !resp.OK() {
		t.Fatalf("change: %+v %v", resp, err)
	}
	if resp, err := c.Validate(ctx, login.Token); err != nil || resp.Code != authsvc.CodeDenied {
		t.Fatalf("validate after change: %+v %v", resp, err)
	}
	// A fresh login under the new password mints a working token.
	login2, err := c.Login(ctx, "iris", clicks(1))
	if err != nil || !login2.OK() || login2.Token == "" {
		t.Fatalf("re-login: %+v %v", login2, err)
	}
	if resp, err := c.Validate(ctx, login2.Token); err != nil || !resp.OK() {
		t.Fatalf("validate fresh token: %+v %v", resp, err)
	}
}

// TestSessionEndToEndHTTP: the same flow over the HTTP front — both
// codecs share the one WithSession stage.
func TestSessionEndToEndHTTP(t *testing.T) {
	s, _, _ := sessionServer(t)
	srv := httptest.NewServer(s.HTTPHandler())
	defer srv.Close()
	c := NewHTTPClient(srv.URL, nil)
	defer c.Close()
	ctx := context.Background()
	if resp, err := c.Enroll(ctx, "hugo", clicks(0)); err != nil || !resp.OK() {
		t.Fatalf("enroll: %+v %v", resp, err)
	}
	login, err := c.Login(ctx, "hugo", clicks(0))
	if err != nil || !login.OK() || login.Token == "" {
		t.Fatalf("login: %+v %v", login, err)
	}
	if resp, err := c.Validate(ctx, login.Token); err != nil || !resp.OK() || resp.User != "hugo" {
		t.Fatalf("validate: %+v %v", resp, err)
	}
	if resp, err := c.Validate(ctx, ""); err != nil || resp.Code != authsvc.CodeDenied {
		t.Fatalf("empty-token validate: %+v %v", resp, err)
	}
}

// TestSessionLockoutRevokes: driving an account into the §5.1 lockout
// revokes its outstanding session — an attacker racing the lockout
// cannot keep an earlier stolen token alive.
func TestSessionLockoutRevokes(t *testing.T) {
	s, _, _ := sessionServer(t)
	ctx := context.Background()
	if resp := s.Handle(Request{Op: OpEnroll, User: "mallory", Clicks: clicks(0)}); !resp.OK {
		t.Fatalf("enroll: %+v", resp)
	}
	login := s.Handle(Request{Op: OpLogin, User: "mallory", Clicks: clicks(0)})
	if !login.OK || login.Token == "" {
		t.Fatalf("login: %+v", login)
	}
	for i := 0; i < 3; i++ {
		s.Handle(Request{Op: OpLogin, User: "mallory", Clicks: clicks(9)})
	}
	if resp := s.Handle(Request{Op: OpLogin, User: "mallory", Clicks: clicks(0)}); !resp.Locked {
		t.Fatalf("expected lockout, got %+v", resp)
	}
	resp := s.HandleContext(ctx, Request{Op: OpValidate, Token: login.Token})
	if authsvc.Code(resp.Code) != authsvc.CodeDenied {
		t.Fatalf("validate after lockout: %+v", resp)
	}
}

// TestValidateWithoutSessionTier: a server with no session tier
// refuses OpValidate with code=invalid rather than panicking or
// minting.
func TestValidateWithoutSessionTier(t *testing.T) {
	s := testServer(t, 3)
	resp := s.Handle(Request{Op: OpValidate, Token: "whatever"})
	if authsvc.Code(resp.Code) != authsvc.CodeInvalid {
		t.Fatalf("validate without session tier: %+v", resp)
	}
	login := s.Handle(Request{Op: OpLogin, User: "nobody", Clicks: clicks(0)})
	if login.Token != "" {
		t.Fatalf("sessionless server minted a token: %+v", login)
	}
}
