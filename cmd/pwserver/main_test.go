package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clickpass/internal/vault"
)

// TestOpenBackend: -backend accepts exactly memory and durable. memory
// loads the JSON snapshot at -vault into a -shards-way store; durable
// opens a log directory; anything else is refused with an error that
// names both valid backends.
func TestOpenBackend(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "v.json")
	if err := os.WriteFile(snap, []byte(`[{"user":"a"},{"user":"b"},{"user":"c"}]`), 0o600); err != nil {
		t.Fatal(err)
	}
	open := func(backend, path string, shards int) (vault.Store, func() error, error) {
		store, _, closeStore, err := openBackend(backend, path, shards, "always",
			vault.DefaultCompactRatio, 0, vault.DefaultCheckpointMin, 0, 0, "")
		return store, closeStore, err
	}
	for _, tc := range []struct {
		backend string
		path    string
		check   func(t *testing.T, store vault.Store)
	}{
		{"memory", snap, func(t *testing.T, store vault.Store) {
			s, ok := store.(*vault.Sharded)
			if !ok {
				t.Fatalf("memory backend is %T, want *vault.Sharded", store)
			}
			if s.Shards() != 5 {
				t.Errorf("Shards() = %d, want 5 (from -shards)", s.Shards())
			}
			if s.Len() != 3 {
				t.Errorf("loaded %d records from %s, want 3", s.Len(), snap)
			}
		}},
		{"durable", filepath.Join(dir, "wal"), func(t *testing.T, store vault.Store) {
			if _, ok := store.(*vault.Durable); !ok {
				t.Fatalf("durable backend is %T, want *vault.Durable", store)
			}
		}},
		{"sharded", snap, nil},
		{"auto", snap, nil},
		{"", snap, nil},
	} {
		t.Run(tc.backend, func(t *testing.T) {
			store, closeStore, err := open(tc.backend, tc.path, 5)
			if tc.check == nil {
				if err == nil {
					closeStore()
					t.Fatalf("-backend %q accepted", tc.backend)
				}
				if !strings.Contains(err.Error(), "memory") || !strings.Contains(err.Error(), "durable") {
					t.Errorf("error %q does not name the valid backends", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := closeStore(); err != nil {
					t.Error(err)
				}
			}()
			tc.check(t, store)
		})
	}
}
