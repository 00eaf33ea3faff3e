package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"clickpass/internal/passpoints"
	"clickpass/internal/session"
	"clickpass/internal/vault"
)

// notPrimaryStore refuses every write the way a follower does.
type notPrimaryStore struct{ vault.Store }

func (notPrimaryStore) Put(*passpoints.Record) error {
	return &vault.NotPrimaryError{Primary: "10.0.0.1:7700"}
}

func TestWrapStoreForwardsExtensions(t *testing.T) {
	tr := newTracer()
	mem := tr.wrapStore(vault.NewSharded(0))
	if _, ok := mem.(vault.LockoutStore); ok {
		t.Error("traced in-memory store claims vault.LockoutStore")
	}
	if _, ok := mem.(vault.KVStore); ok {
		t.Error("traced in-memory store claims vault.KVStore")
	}

	dur, err := vault.OpenDurable(t.TempDir(), vault.DurableOptions{Sync: vault.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	traced := tr.wrapStore(dur)
	locks, ok := traced.(vault.LockoutStore)
	if !ok {
		t.Fatal("traced durable store lost vault.LockoutStore")
	}
	kv, ok := traced.(vault.KVStore)
	if !ok {
		t.Fatal("traced durable store lost vault.KVStore")
	}
	if _, ok := traced.(session.KV); !ok {
		t.Fatal("traced durable store is not a session.KV")
	}
	if err := locks.SetLockout("ann", 3); err != nil || dur.Lockouts()["ann"] != 3 {
		t.Errorf("SetLockout through the wrapper: err %v, stored %v", err, dur.Lockouts())
	}
	if err := kv.SetKV(revPrefix+"ann", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := dur.GetKV(revPrefix + "ann"); !ok || string(v) != "1" {
		t.Errorf("SetKV through the wrapper stored %q, %v", v, ok)
	}

	err = tr.wrapStore(notPrimaryStore{vault.NewSharded(0)}).Put(&passpoints.Record{User: "ann"})
	var npe *vault.NotPrimaryError
	if !errors.As(err, &npe) || npe.Primary != "10.0.0.1:7700" {
		t.Errorf("Put error %v does not pass the NotPrimaryError through", err)
	}

	spans := map[string]string{}
	for _, s := range tr.all() {
		spans[s.kind] = s.user
	}
	if spans["setlockout"] != "ann" || spans["setkv"] != "ann" || spans["put"] != "ann" {
		t.Errorf("spans recorded: %v", spans)
	}
}

// responses sends ld's first n requests, one at a time, to a server
// over fresh storage, traced when tr is non-nil.
func responses(t *testing.T, ld serveLoad, tr *tracer, n int) []string {
	t.Helper()
	e, err := ld.open()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	sv, err := startServer(e, tr, needsHTTP(ld))
	if err != nil {
		t.Fatal(err)
	}
	defer sv.shutdown()
	cs, err := sv.dial(2, ld.httpConns())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(cs)
	if err := ld.populate(cs); err != nil {
		t.Fatal(err)
	}
	ld.prepare(n)
	var out []string
	for k := 0; k < n; k++ {
		resp, err := ld.do(cs[k%len(cs)], k)
		if err != nil {
			t.Errorf("request %d: %v", k, err)
		}
		out = append(out, fmt.Sprintf("%s|%s|%d|%s|token=%v", resp.Code, resp.Err, resp.Remaining, resp.User, resp.Token != ""))
	}
	return out
}

func TestTracingKeepsResponses(t *testing.T) {
	c := serveConfig{Accounts: 24}
	loads := []struct {
		name string
		load func() serveLoad
	}{
		{"login", func() serveLoad { return newLoginLoad(c, 7) }},
		{"validate", func() serveLoad { return newValidateLoad(c, 7) }},
		{"write", func() serveLoad { return newWriteLoad(c, 7, t.TempDir()) }},
	}
	for _, l := range loads {
		t.Run(l.name, func(t *testing.T) {
			const n = 60
			tr := newTracer()
			plain, traced := responses(t, l.load(), nil, n), responses(t, l.load(), tr, n)
			for k := range plain {
				if plain[k] != traced[k] {
					t.Errorf("request %d: untraced %s, traced %s", k, plain[k], traced[k])
				}
			}
			if len(tr.all()) == 0 {
				t.Error("the traced server recorded no spans")
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != "[login write repro]" {
		t.Errorf("workloads %v", names)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
