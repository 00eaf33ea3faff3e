package replay_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/imagegen"
	"clickpass/internal/replay"
	"clickpass/internal/study"
)

func fieldDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	d, err := study.Run(study.FieldConfig(imagegen.Cars(), 9))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newScheme(t testing.TB, mk func() (core.Scheme, error)) core.Scheme {
	t.Helper()
	s, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSetMatchesDirectReplay: Accepts must agree with the naive
// enroll-then-match loop for every login of a real dataset, under both
// schemes.
func TestSetMatchesDirectReplay(t *testing.T) {
	d := fieldDataset(t)
	schemes := []core.Scheme{
		newScheme(t, func() (core.Scheme, error) { return core.NewCentered(13) }),
		newScheme(t, func() (core.Scheme, error) { return core.NewRobust2D(36, core.MostCentered, 5) }),
	}
	for _, scheme := range schemes {
		set := replay.Compile(d, scheme)
		if set.Len() != len(d.Passwords) {
			t.Fatalf("%s: Len = %d, want %d", scheme.Name(), set.Len(), len(d.Passwords))
		}
		for i := range d.Logins {
			l := &d.Logins[i]
			pts := l.Points()
			got, err := set.AcceptsID(l.PasswordID, pts)
			if err != nil {
				t.Fatal(err)
			}
			if viaClicks, err := set.AcceptsLogin(l.PasswordID, l.Clicks); err != nil || viaClicks != got {
				t.Fatalf("%s login %d: AcceptsLogin = %v, %v; AcceptsID = %v",
					scheme.Name(), i, viaClicks, err, got)
			}
			pw := d.PasswordByID(l.PasswordID)
			want := true
			for j, pt := range pts {
				if !core.Accepts(scheme, scheme.Enroll(pw.Clicks[j].Point()), pt) {
					want = false
					break
				}
			}
			// Re-enrolling must be legal for this cross-check: both
			// schemes here are deterministic (no RandomSafe).
			if got != want {
				t.Fatalf("%s login %d: Accepts = %v, want %v", scheme.Name(), i, got, want)
			}
		}
	}
}

// shuffledCohort is a pool cohort with its passwords in a fixed random
// order: IDs start at 10000 and are not sorted, so neither equals the
// password's index.
func shuffledCohort(t testing.TB) *dataset.Dataset {
	t.Helper()
	d, err := study.RunCohort(study.DefaultCohort(imagegen.Pool(), 3))
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(d.Passwords), func(i, j int) {
		d.Passwords[i], d.Passwords[j] = d.Passwords[j], d.Passwords[i]
	})
	return d
}

// TestSetTokensMatchEnrollment: the flattened storage must hand back
// exactly the tokens a per-password enrollment produces, keyed both by
// ordinal and by dataset ID. The ordinal of an ID must be its index in
// d.Passwords even when IDs are offset and unsorted, because replay
// loops read the original password as &d.Passwords[ord].
func TestSetTokensMatchEnrollment(t *testing.T) {
	scheme := newScheme(t, func() (core.Scheme, error) { return core.NewCentered(19) })
	for _, d := range []*dataset.Dataset{fieldDataset(t), shuffledCohort(t)} {
		set := replay.Compile(d, scheme)
		for i := range d.Passwords {
			p := &d.Passwords[i]
			ord, ok := set.Ordinal(p.ID)
			if !ok || ord != i {
				t.Fatalf("%s: Ordinal(%d) = %d, %v, want %d, true", d.Image, p.ID, ord, ok, i)
			}
			tokens := set.Tokens(i)
			if len(tokens) != len(p.Clicks) {
				t.Fatalf("password %d: %d tokens, want %d", p.ID, len(tokens), len(p.Clicks))
			}
			for j := range tokens {
				if tokens[j] != scheme.Enroll(p.Clicks[j].Point()) {
					t.Fatalf("password %d click %d: token mismatch", p.ID, j)
				}
			}
		}
		for i := range d.Logins {
			l := &d.Logins[i]
			ord, ok := set.Ordinal(l.PasswordID)
			if !ok || d.Passwords[ord].ID != l.PasswordID {
				t.Fatalf("%s login %d: Ordinal(%d) = %d, %v, which is not its password", d.Image, i, l.PasswordID, ord, ok)
			}
		}
		if _, err := set.AcceptsID(-99, nil); err == nil {
			t.Error("AcceptsID accepted an unknown password ID")
		}
	}
}

// TestSetRecompileReuses: a Set is reusable across Compiles (the
// Hasher buffer pattern) and must behave like a fresh one afterwards.
func TestSetRecompileReuses(t *testing.T) {
	d := fieldDataset(t)
	scheme := newScheme(t, func() (core.Scheme, error) { return core.NewCentered(13) })
	var set replay.Set
	set.Compile(d, scheme)
	fresh := replay.Compile(d, scheme)
	// Recompile under a different scheme, then back: same verdicts as a
	// fresh Set on every login.
	other := newScheme(t, func() (core.Scheme, error) { return core.NewRobust2D(36, core.MostCentered, 5) })
	set.Compile(d, other)
	set.Compile(d, scheme)
	for i := range d.Logins {
		l := &d.Logins[i]
		got, err := set.AcceptsID(l.PasswordID, l.Points())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.AcceptsID(l.PasswordID, l.Points())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("login %d: recompiled Set disagrees with fresh Set", i)
		}
	}
}

// TestSetPointsCompile: CompilePoints covers guess lists — no IDs, and
// a length-mismatched candidate is a rejection, not a panic.
func TestSetPointsCompile(t *testing.T) {
	scheme := newScheme(t, func() (core.Scheme, error) { return core.NewCentered(13) })
	pws := [][]geom.Point{
		{geom.Pt(10, 10), geom.Pt(100, 100)},
		{geom.Pt(50, 60), geom.Pt(200, 210), geom.Pt(300, 12)},
	}
	set := replay.CompilePoints(pws, scheme)
	if set.Len() != 2 {
		t.Fatalf("Len = %d, want 2", set.Len())
	}
	for i, pts := range pws {
		if !set.Accepts(i, pts) {
			t.Errorf("password %d rejects its own clicks", i)
		}
	}
	if set.Accepts(0, pws[1]) {
		t.Error("length-mismatched candidate accepted")
	}
	if _, ok := set.Ordinal(0); ok {
		t.Error("point-compiled Set resolved a dataset ID")
	}
}

// TestSetSharedAcrossGoroutines is the -race stress for the replay
// layer's central claim: one compiled Set may be hammered by many
// concurrent matchers with no synchronization. Run under -race; every
// goroutine must also reach the same tally.
func TestSetSharedAcrossGoroutines(t *testing.T) {
	d := fieldDataset(t)
	scheme := newScheme(t, func() (core.Scheme, error) { return core.NewRobust2D(36, core.MostCentered, 5) })
	set := replay.Compile(d, scheme)
	const goroutines = 16
	tallies := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range d.Logins {
				l := &d.Logins[i]
				ok, err := set.AcceptsID(l.PasswordID, l.Points())
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					tallies[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if tallies[g] != tallies[0] {
			t.Fatalf("goroutine %d accepted %d logins, goroutine 0 accepted %d",
				g, tallies[g], tallies[0])
		}
	}
	if tallies[0] == 0 {
		t.Fatal("stress replay accepted no logins — dataset or scheme misconfigured")
	}
}
