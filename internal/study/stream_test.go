package study

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"clickpass/internal/dataset"
	"clickpass/internal/imagegen"
)

// TestStreamMatchesRun re-collects the streaming path into a dataset
// and requires it to equal Run's materialized output exactly, at
// several worker counts. Together with the golden SHA tests (which pin
// Run/RunCohort, now thin shells over the streams), this locks the
// streamed bytes to the pre-streaming generation.
func TestStreamMatchesRun(t *testing.T) {
	img := imagegen.Cars()
	for _, w := range []int{1, 2, 8} {
		cfg := FieldConfig(img, 99)
		cfg.Workers = w
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := &dataset.Dataset{Image: img.Name, Width: img.Size.W, Height: img.Size.H}
		err = Stream(cfg, func(pw dataset.Password, logins []dataset.Login) error {
			got.Passwords = append(got.Passwords, pw)
			got.Logins = append(got.Logins, logins...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: streamed dataset differs from Run", w)
		}
	}
}

// TestRunCohortStreamMatchesRunCohort re-collects the streamed cohort
// and requires byte-identity with RunCohort — including the serially
// renumbered password IDs — at several worker counts.
func TestRunCohortStreamMatchesRunCohort(t *testing.T) {
	img := imagegen.Pool()
	for _, w := range []int{1, 2, 8} {
		cfg := DefaultCohort(img, 31)
		cfg.Workers = w
		want, err := RunCohort(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := &dataset.Dataset{Image: img.Name, Width: img.Size.W, Height: img.Size.H}
		lastIdx := -1
		err = RunCohortStream(cfg, func(p Participant) error {
			if p.Index != lastIdx+1 {
				t.Fatalf("participant %d emitted after %d", p.Index, lastIdx)
			}
			lastIdx = p.Index
			got.Passwords = append(got.Passwords, p.Passwords...)
			got.Logins = append(got.Logins, p.Logins...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if lastIdx != cfg.Participants-1 {
			t.Fatalf("streamed %d participants, want %d", lastIdx+1, cfg.Participants)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: streamed cohort differs from RunCohort", w)
		}
		for i := 1; i < len(got.Passwords); i++ {
			if got.Passwords[i].ID != got.Passwords[i-1].ID+1 {
				t.Fatalf("password IDs not sequential at %d: %d after %d",
					i, got.Passwords[i].ID, got.Passwords[i-1].ID)
			}
		}
	}
}

// blockSizes straddle the generation block of 64 items: a lone item,
// one short of a block, exactly one block, one past it, and two blocks
// plus one.
var blockSizes = []int{1, 63, 64, 65, 129}

// blockWorkers includes a worker count that does not divide the block
// count and one above it.
var blockWorkers = []int{1, 2, 3, 8}

// streamHash digests generated passwords and logins: IDs, user and
// image names, and every click.
func streamHash(pws []dataset.Password, logins []dataset.Login) string {
	var buf []byte
	put := func(v int) { buf = binary.AppendVarint(buf, int64(v)) }
	for _, pw := range pws {
		put(pw.ID)
		buf = append(append(buf, pw.User...), 0)
		buf = append(append(buf, pw.Image...), 0)
		for _, c := range pw.Clicks {
			put(c.X)
			put(c.Y)
		}
	}
	for _, l := range logins {
		put(l.PasswordID)
		put(l.Attempt)
		for _, c := range l.Clicks {
			put(c.X)
			put(c.Y)
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestStreamBlockBoundaries pins Stream at sizes around the block
// boundary to the Workers: 1 output and to digests recorded when
// generation ran one task per password, before it was chunked.
func TestStreamBlockBoundaries(t *testing.T) {
	recorded := map[int]string{
		1:   "b83d7db966b9cedfe2159d19f9b49bf00ceae0eeff81d92d91c56952de337f78",
		63:  "d5a700ff4950de65dd4bcd5594d07ec8c772bb483a7778d3089cd621836a2514",
		64:  "672072503f9d00845d7433ceedc7cd835d93c358256ea07ec67d3445e9d6508b",
		65:  "18de2ad0d8f84b364a23166f81d5088cce5c43746904c037fe500520181218fc",
		129: "bee6b729e2ac5b23a476d331fc6dd1965e1ef555c235b1f836c5b5b649afe66a",
	}
	img := imagegen.Cars()
	for _, n := range blockSizes {
		var serial []dataset.Password
		for _, w := range blockWorkers {
			cfg := FieldConfig(img, 7)
			cfg.Passwords, cfg.Workers = n, w
			var pws []dataset.Password
			var logins []dataset.Login
			err := Stream(cfg, func(pw dataset.Password, ls []dataset.Login) error {
				pws = append(pws, pw)
				logins = append(logins, ls...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := streamHash(pws, logins); got != recorded[n] {
				t.Errorf("passwords=%d workers=%d: digest %s, recorded %s", n, w, got, recorded[n])
			}
			if w == 1 {
				serial = pws
			} else if !reflect.DeepEqual(pws, serial) {
				t.Errorf("passwords=%d workers=%d: output differs from workers=1", n, w)
			}
		}
	}
}

// TestRunCohortStreamBlockBoundaries is TestStreamBlockBoundaries for
// the cohort, whose password IDs are renumbered on the emit path.
func TestRunCohortStreamBlockBoundaries(t *testing.T) {
	recorded := map[int]string{
		1:   "18b78ed01457462a3eba9801b5f830e2d6d8cbf486f1dda6dda6b4c693378710",
		63:  "235d51bbf88af36b0176552b1ecea1b52931000d6386d20728ed2d38f0af39b3",
		64:  "3c74b2c330a480efd3180d9cf52a3192be8ad81d75d3b4d18e947e7ee0745355",
		65:  "6037921ed43332ef984cc41688442566b529d3125096dcf7e93c98ce37ed75fc",
		129: "d8dd773eb2b468b1e65cb6d00e07697f17e6322aa1421f3ab2fad2b75ccf9e46",
	}
	img := imagegen.Pool()
	for _, n := range blockSizes {
		var serial []Participant
		for _, w := range blockWorkers {
			cfg := DefaultCohort(img, 7)
			cfg.Participants, cfg.Workers = n, w
			var ps []Participant
			var pws []dataset.Password
			var logins []dataset.Login
			err := RunCohortStream(cfg, func(p Participant) error {
				ps = append(ps, p)
				pws = append(pws, p.Passwords...)
				logins = append(logins, p.Logins...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := streamHash(pws, logins); got != recorded[n] {
				t.Errorf("participants=%d workers=%d: digest %s, recorded %s", n, w, got, recorded[n])
			}
			if w == 1 {
				serial = ps
			} else if !reflect.DeepEqual(ps, serial) {
				t.Errorf("participants=%d workers=%d: output differs from workers=1", n, w)
			}
		}
	}
}

// TestStreamEmitErrorMidBlock: an emit that fails partway through a
// generation block must stop both streams at once. The error comes
// back, and nothing after the failing item is emitted.
func TestStreamEmitErrorMidBlock(t *testing.T) {
	const n, failAt = 129, 70 // item 70 is in the middle of the second block
	errStop := errors.New("stop")
	for _, w := range blockWorkers {
		cfg := FieldConfig(imagegen.Cars(), 7)
		cfg.Passwords, cfg.Workers = n, w
		emitted := 0
		err := Stream(cfg, func(dataset.Password, []dataset.Login) error {
			emitted++
			if emitted == failAt+1 {
				return errStop
			}
			return nil
		})
		if !errors.Is(err, errStop) || emitted != failAt+1 {
			t.Errorf("Stream workers=%d: err %v after %d emits, want %v after %d", w, err, emitted, errStop, failAt+1)
		}

		cc := DefaultCohort(imagegen.Pool(), 7)
		cc.Participants, cc.Workers = n, w
		emitted = 0
		err = RunCohortStream(cc, func(p Participant) error {
			if p.Index != emitted {
				t.Fatalf("RunCohortStream workers=%d: participant %d emitted at position %d", w, p.Index, emitted)
			}
			emitted++
			if emitted == failAt+1 {
				return errStop
			}
			return nil
		})
		if !errors.Is(err, errStop) || emitted != failAt+1 {
			t.Errorf("RunCohortStream workers=%d: err %v after %d emits, want %v after %d", w, err, emitted, errStop, failAt+1)
		}
	}
}

// heapLive returns the post-GC live heap — retained bytes, not
// allocation churn.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRunCohortStreamMemoryBudget is the O(workers)-memory regression
// gate: a large streamed cohort must retain less than heapBudget bytes
// beyond the baseline, while materializing the same cohort through
// RunCohort is shown to exceed that budget — so if streaming ever
// silently starts buffering whole cohorts again, this fails rather
// than just getting slower.
func TestRunCohortStreamMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-budget test generates a large cohort")
	}
	const heapBudget = 12 << 20 // bytes retained beyond baseline
	img := imagegen.Cars()
	cfg := DefaultCohort(img, 5)
	cfg.Participants = 10000

	base := heapLive()
	var participants, passwords, logins int
	if err := RunCohortStream(cfg, func(p Participant) error {
		participants++
		passwords += len(p.Passwords)
		logins += len(p.Logins)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	streamed := int64(heapLive()) - int64(base)
	if participants != cfg.Participants || passwords == 0 || logins == 0 {
		t.Fatalf("stream under-delivered: %d participants, %d passwords, %d logins",
			participants, passwords, logins)
	}
	if streamed >= heapBudget {
		t.Fatalf("streamed cohort retained %d bytes, budget %d", streamed, heapBudget)
	}

	base = heapLive()
	d, err := RunCohort(cfg)
	if err != nil {
		t.Fatal(err)
	}
	materialized := int64(heapLive()) - int64(base)
	if materialized <= heapBudget {
		t.Fatalf("materialized cohort retained %d bytes — the %d budget no longer separates the paths; grow cfg.Participants",
			materialized, heapBudget)
	}
	t.Logf("retained: streamed %d bytes, materialized %d bytes (%d passwords, %d logins)",
		streamed, materialized, len(d.Passwords), len(d.Logins))
	runtime.KeepAlive(d)
}
