package study

import (
	"fmt"
	"math"

	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/par"
	"clickpass/internal/rng"
)

// Participant is one streamed cohort member's generated block:
// everything RunCohort would have contributed to the materialized
// dataset for this participant, with final sequential password IDs
// already assigned. Blocks arrive in participant order.
type Participant struct {
	// Index is the participant's ordinal in [0, Participants).
	Index int
	// Passwords are the participant's created passwords with final
	// dataset IDs (sequential from CohortConfig.FirstPasswordID in
	// participant order).
	Passwords []dataset.Password
	// Logins are the participant's login attempts; PasswordID points at
	// the final password IDs above.
	Logins []dataset.Login
}

// genBlock is how many consecutive items (passwords or participants)
// one par.Stream task generates. An item is only ~5-30 µs of work, so
// one task per item spends much of its time in the pool's claim and
// handoff; a block of 64 amortizes that while keeping the reorder
// window small.
const genBlock = 64

// Stream is the streaming form of Run: it generates the same study —
// byte-identical passwords and logins, in the same order — but hands
// each password and its logins to emit instead of materializing a
// dataset.Dataset, holding at most 2·workers blocks of genBlock (64)
// passwords in memory. Each password draws from its own rng stream
// split off the seed in password order, so Stream and Run agree for
// any worker count. An error from emit stops generation and is
// returned; no later password is emitted.
func Stream(cfg Config, emit func(pw dataset.Password, logins []dataset.Login) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	type item struct {
		pw     dataset.Password
		logins []dataset.Login
	}
	return streamBlocks(cfg.Workers, cfg.Passwords, cfg.Seed,
		func(r *rng.Source, i int) item {
			pw, logins := genPassword(r, cfg, i)
			return item{pw: pw, logins: logins}
		},
		func(it item) error { return emit(it.pw, it.logins) })
}

// RunCohortStream is the streaming form of RunCohort: the same cohort
// — byte-identical passwords and logins, in the same participant
// order, with the same sequential password IDs — delivered one
// Participant at a time while holding at most 2·workers blocks of
// genBlock (64) participants in memory. A 10M-user cohort streams
// through a fixed-size reorder window instead of a multi-gigabyte
// dataset. ID renumbering happens serially in the ordered emit path,
// exactly where RunCohort does it after its fan-out. An error from
// emit stops generation and is returned; no later participant is
// emitted.
func RunCohortStream(cfg CohortConfig, emit func(p Participant) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	pwCfg := Config{
		Image:         cfg.Image,
		Passwords:     1,
		Clicks:        cfg.Clicks,
		MinSeparation: cfg.MinSeparation,
		Error:         cfg.Error,
	}
	nextID := cfg.FirstPasswordID
	return streamBlocks(cfg.Workers, cfg.Participants, cfg.Seed,
		func(r *rng.Source, p int) Participant { return genParticipant(r, cfg, pwCfg, p) },
		func(blk Participant) error {
			// Participant password counts are random, so IDs can only be
			// assigned here, on the serial in-order path.
			for i := range blk.Passwords {
				blk.Passwords[i].ID += nextID
			}
			for i := range blk.Logins {
				blk.Logins[i].PasswordID += nextID
			}
			nextID += len(blk.Passwords)
			return emit(blk)
		})
}

// streamBlocks generates n items on par.Stream in tasks of genBlock
// consecutive items and emits them one at a time in index order,
// stopping at the first emit error. Item i draws from the i-th stream
// split off rng.New(seed); the splits run in par.Stream's serial
// prepare hook, in index order, so the output does not depend on the
// worker count.
func streamBlocks[T any](workers, n int, seed uint64, gen func(r *rng.Source, i int) T, emit func(v T) error) error {
	base := rng.New(seed)
	blocks := (n + genBlock - 1) / genBlock
	return par.Stream(workers, blocks,
		func(b int) func() ([]T, error) {
			lo := b * genBlock
			rs := make([]*rng.Source, min(genBlock, n-lo))
			for k := range rs {
				rs[k] = base.Split()
			}
			return func() ([]T, error) {
				out := make([]T, len(rs))
				for k, r := range rs {
					out[k] = gen(r, lo+k)
				}
				return out, nil
			}
		},
		func(_ int, vs []T) error {
			for _, v := range vs {
				if err := emit(v); err != nil {
					return err
				}
			}
			return nil
		})
}

// genPassword generates the i-th study password and its logins from
// the password's own rng stream — the per-task body shared by Run and
// Stream.
func genPassword(r *rng.Source, cfg Config, i int) (dataset.Password, []dataset.Login) {
	size := cfg.Image.Size
	id := cfg.FirstPasswordID + i
	clicks := samplePassword(r, cfg)
	pw := dataset.Password{
		ID:    id,
		User:  fmt.Sprintf("%s-p%03d", cfg.Image.Name, i),
		Image: cfg.Image.Name,
	}
	pw.Clicks = toClicks(clicks)
	var logins []dataset.Login
	// One slab holds every login's clicks; each login gets a full
	// slice expression so an append cannot reach its neighbour's.
	n := len(clicks)
	slab := make([]dataset.Click, n*cfg.LoginsPerPassword)
	for a := 0; a < cfg.LoginsPerPassword; a++ {
		login := dataset.Login{PasswordID: id, Attempt: a, Clicks: slab[a*n : a*n : (a+1)*n]}
		for _, p := range clicks {
			login.Clicks = append(login.Clicks, dataset.FromPoint(cfg.Error.perturb(r, p, size)))
		}
		logins = append(logins, login)
	}
	return pw, logins
}

// genParticipant generates participant p's block from the
// participant's own rng stream — the per-task body shared by RunCohort
// and RunCohortStream. Password IDs and Login.PasswordID are
// participant-local ordinals; the serial emit path renumbers them.
func genParticipant(r *rng.Source, cfg CohortConfig, pwCfg Config, p int) Participant {
	size := cfg.Image.Size
	blk := Participant{Index: p}
	// Lognormal skill multiplier with mean ~1.
	skill := math.Exp(r.NormalScaled(0, cfg.SkillSpread))
	if skill < 0.3 {
		skill = 0.3
	}
	if skill > 3 {
		skill = 3
	}
	nPw := sampleCount(r, cfg.PasswordsPerParticipant)
	for k := 0; k < nPw; k++ {
		clicksPts := samplePassword(r, pwCfg)
		pw := dataset.Password{
			ID:    k,
			User:  fmt.Sprintf("%s-c%03d", cfg.Image.Name, p),
			Image: cfg.Image.Name,
		}
		pw.Clicks = toClicks(clicksPts)
		blk.Passwords = append(blk.Passwords, pw)
		nLogins := sampleCount(r, cfg.LoginsPerPassword)
		n := len(clicksPts)
		slab := make([]dataset.Click, n*nLogins) // one allocation, cut as in genPassword
		errScale := skill
		for a := 0; a < nLogins; a++ {
			model := cfg.Error.scaled(errScale)
			login := dataset.Login{PasswordID: k, Attempt: a, Clicks: slab[a*n : a*n : (a+1)*n]}
			for _, pt := range clicksPts {
				login.Clicks = append(login.Clicks, dataset.FromPoint(model.perturb(r, pt, size)))
			}
			blk.Logins = append(blk.Logins, login)
			// Practice: later attempts get steadier, floored at half the
			// participant's initial error.
			errScale *= cfg.PracticeRate
			if errScale < skill/2 {
				errScale = skill / 2
			}
		}
	}
	return blk
}

// toClicks converts a password's points to dataset clicks in one
// allocation.
func toClicks(pts []geom.Point) []dataset.Click {
	out := make([]dataset.Click, len(pts))
	for i, p := range pts {
		out[i] = dataset.FromPoint(p)
	}
	return out
}
