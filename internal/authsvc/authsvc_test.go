package authsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/vault"
)

func testConfig(t *testing.T, iterations int) passpoints.Config {
	t.Helper()
	scheme, err := core.NewCentered(13)
	if err != nil {
		t.Fatal(err)
	}
	return passpoints.Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     scheme,
		Iterations: iterations,
	}
}

func testService(t *testing.T, lockout int) *Service {
	t.Helper()
	svc, err := NewService(testConfig(t, 2), vault.NewSharded(0), lockout)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func clicks(dx int) []dataset.Click {
	return []dataset.Click{
		{X: 30 + dx, Y: 40}, {X: 120 + dx, Y: 300}, {X: 222 + dx, Y: 51},
		{X: 400 + dx, Y: 200}, {X: 77 + dx, Y: 160},
	}
}

func TestServiceCodes(t *testing.T) {
	svc := testService(t, 2)
	ctx := context.Background()
	cases := []struct {
		name string
		req  Request
		want Code
	}{
		{"ping", Request{Op: OpPing}, CodeOK},
		{"unknown op", Request{Op: "bogus"}, CodeInvalid},
		{"enroll no user", Request{Op: OpEnroll, Clicks: clicks(0)}, CodeInvalid},
		{"enroll", Request{Op: OpEnroll, User: "a", Clicks: clicks(0)}, CodeOK},
		{"enroll dup", Request{Op: OpEnroll, User: "a", Clicks: clicks(0)}, CodeExists},
		{"login ok", Request{Op: OpLogin, User: "a", Clicks: clicks(3)}, CodeOK},
		{"login wrong", Request{Op: OpLogin, User: "a", Clicks: clicks(9)}, CodeDenied},
		{"login locks", Request{Op: OpLogin, User: "a", Clicks: clicks(9)}, CodeLocked},
		{"login locked out", Request{Op: OpLogin, User: "a", Clicks: clicks(3)}, CodeLocked},
		{"reset", Request{Op: OpReset, User: "a"}, CodeOK},
		{"login after reset", Request{Op: OpLogin, User: "a", Clicks: clicks(3)}, CodeOK},
		{"future version", Request{Version: Version + 1, Op: OpPing}, CodeInvalid},
		{"explicit v1", Request{Version: 1, Op: OpPing}, CodeOK},
	}
	for _, tc := range cases {
		resp := svc.Handle(ctx, tc.req)
		if resp.Code != tc.want {
			t.Errorf("%s: code = %q (%q), want %q", tc.name, resp.Code, resp.Err, tc.want)
		}
		if resp.Version != Version {
			t.Errorf("%s: response version = %d, want %d", tc.name, resp.Version, Version)
		}
	}
}

func TestServiceChange(t *testing.T) {
	svc := testService(t, 3)
	ctx := context.Background()
	svc.Handle(ctx, Request{Op: OpEnroll, User: "c", Clicks: clicks(0)})
	if resp := svc.Handle(ctx, Request{Op: OpChange, User: "c", Clicks: clicks(9), NewClicks: clicks(40)}); resp.Code != CodeDenied {
		t.Fatalf("change with wrong old password: %+v", resp)
	}
	if resp := svc.Handle(ctx, Request{Op: OpChange, User: "c", Clicks: clicks(0), NewClicks: clicks(40)}); !resp.OK() {
		t.Fatalf("change: %+v", resp)
	}
	if resp := svc.Handle(ctx, Request{Op: OpLogin, User: "c", Clicks: clicks(0)}); resp.OK() {
		t.Error("old password still accepted after change")
	}
	if resp := svc.Handle(ctx, Request{Op: OpLogin, User: "c", Clicks: clicks(40)}); !resp.OK() {
		t.Errorf("new password rejected after change: %+v", resp)
	}
}

// TestCorruptRecordKeepsLockoutBudget: a stored record whose hash
// parameters are corrupt (as a damaged vault file or log could hand
// back) is a storage fault. Correct logins against it must answer
// CodeInternal every time without spending the lockout budget, so the
// account is intact once the record is repaired.
func TestCorruptRecordKeepsLockoutBudget(t *testing.T) {
	const lockout = 10
	corruptions := map[string]func(*passpoints.Record){
		"zero iterations": func(r *passpoints.Record) { r.Iterations = 0 },
		"empty salt":      func(r *passpoints.Record) { r.Salt = nil },
		"short digest":    func(r *passpoints.Record) { r.Digest = r.Digest[:31] },
	}
	for name, corrupt := range corruptions {
		store := vault.NewSharded(0)
		svc, err := NewService(testConfig(t, 2), store, lockout)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if resp := svc.Handle(ctx, Request{Op: OpEnroll, User: "u", Clicks: clicks(0)}); !resp.OK() {
			t.Fatalf("%s: enroll: %+v", name, resp)
		}
		good, err := store.Get("u")
		if err != nil {
			t.Fatal(err)
		}
		bad := *good
		corrupt(&bad)
		if err := store.Replace(&bad); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < lockout+1; i++ {
			if resp := svc.Handle(ctx, Request{Op: OpLogin, User: "u", Clicks: clicks(0)}); resp.Code != CodeInternal {
				t.Fatalf("%s: login %d: %+v, want %s", name, i, resp, CodeInternal)
			}
		}
		if n := svc.failures["u"]; n != 0 {
			t.Errorf("%s: %d lockout attempts spent on a corrupt record", name, n)
		}
		if err := store.Replace(good); err != nil {
			t.Fatal(err)
		}
		if resp := svc.Handle(ctx, Request{Op: OpLogin, User: "u", Clicks: clicks(9)}); resp.Code != CodeDenied || resp.Remaining != lockout-1 {
			t.Errorf("%s: wrong login after repair: %+v, want %s with %d remaining", name, resp, CodeDenied, lockout-1)
		}
	}
}

// TestUnknownUserIndistinguishable is the user-enumeration pin: an
// unknown user and a wrong password must produce byte-identical
// response bodies (same code, same error, same remaining budget) at
// every attempt stage, through lockout.
func TestUnknownUserIndistinguishable(t *testing.T) {
	svc := testService(t, 3)
	ctx := context.Background()
	svc.Handle(ctx, Request{Op: OpEnroll, User: "real", Clicks: clicks(0)})
	for i := 0; i < 4; i++ {
		wrongPW := svc.Handle(ctx, Request{Op: OpLogin, User: "real", Clicks: clicks(9)})
		unknown := svc.Handle(ctx, Request{Op: OpLogin, User: "ghost", Clicks: clicks(9)})
		a, err := json.Marshal(wrongPW)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(unknown)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("attempt %d: bodies differ: real=%s ghost=%s", i, a, b)
		}
	}
}

// TestUnknownUserTimingEquivalent: the unknown-user path must do the
// same hash work as a wrong password (a digest compare against the
// dummy record), so response timing cannot enumerate users. With a
// deliberately heavy iteration count the hash dominates, and the two
// paths' medians must be within a wide factor of each other — wide
// enough to hold on noisy CI, tight enough to catch the old fast-path
// (which skipped hashing entirely and was ~1000x faster at this
// setting).
func TestUnknownUserTimingEquivalent(t *testing.T) {
	svc, err := NewService(testConfig(t, 20000), vault.NewSharded(0), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if resp := svc.Handle(ctx, Request{Op: OpEnroll, User: "real", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("enroll: %+v", resp)
	}
	median := func(user string) time.Duration {
		var times []time.Duration
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			svc.Handle(ctx, Request{Op: OpLogin, User: user, Clicks: clicks(9)})
			times = append(times, time.Since(t0))
		}
		for i := 1; i < len(times); i++ {
			for j := i; j > 0 && times[j] < times[j-1]; j-- {
				times[j], times[j-1] = times[j-1], times[j]
			}
		}
		return times[len(times)/2]
	}
	known := median("real")
	ghost := median("ghost")
	if ghost*8 < known || known*8 < ghost {
		t.Errorf("timing oracle: wrong-password median %v vs unknown-user median %v", known, ghost)
	}
}

func TestNewServiceValidation(t *testing.T) {
	cfg := testConfig(t, 2)
	if _, err := NewService(cfg, nil, 0); err == nil {
		t.Error("nil store accepted")
	}
	bad := cfg
	bad.Scheme = nil
	if _, err := NewService(bad, vault.NewSharded(0), 0); err == nil {
		t.Error("invalid config accepted")
	}
	svc, err := NewService(cfg, vault.NewSharded(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Lockout() != DefaultLockout {
		t.Errorf("default lockout = %d", svc.Lockout())
	}
}

// TestDummyRecordNotStored: the timing-equalization record must never
// leak into the vault as an account.
func TestDummyRecordNotStored(t *testing.T) {
	store := vault.NewSharded(0)
	if _, err := NewService(testConfig(t, 2), store, 0); err != nil {
		t.Fatal(err)
	}
	if n := store.Len(); n != 0 {
		t.Errorf("service construction stored %d records", n)
	}
}

func TestExpiredContextRefused(t *testing.T) {
	svc := testService(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp := svc.Handle(ctx, Request{Op: OpPing})
	if resp.Code != CodeUnavailable {
		t.Errorf("expired ctx: code = %q, want %q", resp.Code, CodeUnavailable)
	}
}

// TestFailureSweepPreservesLockouts: when the failed-attempt map hits
// its cap, sub-lockout counters are evicted (bounding memory under a
// ghost-name flood) but locked accounts must survive the sweep — a
// flood cannot lift an existing lockout.
func TestFailureSweepPreservesLockouts(t *testing.T) {
	svc := testService(t, 3)
	svc.mu.Lock()
	svc.failures["locked-victim"] = 3
	for i := 0; i < 100; i++ {
		svc.failures[fmt.Sprintf("ghost-%d", i)] = 1
	}
	svc.sweepFailures()
	kept := len(svc.failures)
	locked := svc.failures["locked-victim"]
	svc.mu.Unlock()
	if kept != 1 || locked != 3 {
		t.Errorf("after sweep: %d entries, victim counter %d; want only the locked account, untouched", kept, locked)
	}
	// The locked account still refuses logins after the sweep.
	resp := svc.Handle(context.Background(), Request{Op: OpLogin, User: "locked-victim", Clicks: clicks(0)})
	if resp.Code != CodeLocked {
		t.Errorf("locked account after sweep: %+v", resp)
	}
}
