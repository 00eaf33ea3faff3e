package main

import (
	"strings"
	"testing"
)

// smallRepro is the repro workload at paper scale with a small cohort,
// one setup and one reproduction, so a run takes milliseconds.
func smallRepro(t *testing.T, digests map[string]string) *config {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Repro.Scale, cfg.Repro.CohortParticipants = 1, 20
	cfg.Repro.Setups, cfg.Repro.MinReps = 1, 2
	cfg.Repro.Digests = digests
	return cfg
}

func TestReproFailsOnWrongDigest(t *testing.T) {
	res, err := runRepro(smallRepro(t, map[string]string{"7": "not-the-digest"}), options{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.failed != 1 {
		t.Fatalf("a reproduction with the wrong recorded digest: correct %v, failed %d", res.correct(), res.failed)
	}
	if len(res.problems) != 1 || !strings.Contains(res.problems[0], "not-the-digest") {
		t.Errorf("problems %q do not name the recorded digest", res.problems)
	}
	if len(res.metrics) != 0 {
		t.Errorf("a failed run reported metrics %v", res.metrics)
	}
}

func TestReproFailsOnWrongReference(t *testing.T) {
	cfg := smallRepro(t, nil)
	cfg.Repro.RefDigest = "not-the-digest"
	res, err := runRepro(cfg, options{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.attempted != 1 {
		t.Fatalf("a wrong reference digest: correct %v, attempted %d", res.correct(), res.attempted)
	}
}

func TestReproUnrecordedSeedAgrees(t *testing.T) {
	res, err := runRepro(smallRepro(t, nil), options{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("an unrecorded seed failed: %q", res.problems)
	}
	if res.attempted != 3 { // the reference and MinReps reproductions
		t.Errorf("attempted %d, want 3", res.attempted)
	}
	if s := res.metrics["setup_s"].Value; s <= 0 {
		t.Errorf("setup_s %v", s)
	}
}
