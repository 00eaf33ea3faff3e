package study

import (
	"fmt"

	"clickpass/internal/dataset"
	"clickpass/internal/imagegen"
	"clickpass/internal/rng"
)

// CohortConfig describes a participant-level simulation matching the
// paper's study header numbers: 191 participants split across two
// images created 481 passwords and performed 3339 login attempts. It
// layers two sources of heterogeneity on the base error model that the
// per-password FieldConfig deliberately omits:
//
//   - skill: a per-participant multiplier on error magnitudes
//     (some people are steadier with a mouse than others);
//   - practice: per-password error shrinking over successive login
//     attempts as the click sequence becomes familiar.
//
// The cohort generator is the robustness check for the calibrated
// experiments: Tables 1 and 2 must keep their shape when user
// heterogeneity is turned on.
type CohortConfig struct {
	// Image is the hotspot field this half of the cohort uses.
	Image *imagegen.Image
	// Participants using this image (the paper's 191 split ~half).
	Participants int
	// PasswordsPerParticipant is the mean number of passwords each
	// participant creates (the field study averaged 481/191 ≈ 2.5;
	// individuals vary between 1 and 4).
	PasswordsPerParticipant float64
	// LoginsPerPassword is the mean number of recorded login attempts
	// per password (3339/481 ≈ 6.9).
	LoginsPerPassword float64
	// Clicks per password.
	Clicks int
	// MinSeparation between clicks within a password (pixels).
	MinSeparation int
	// Error is the base error model; per-participant skill scales its
	// sigmas.
	Error ErrorModel
	// SkillSpread is the standard deviation of the lognormal skill
	// multiplier (0 disables heterogeneity; 0.25 is mild, 0.5 strong).
	SkillSpread float64
	// PracticeRate is the per-attempt multiplicative error decay
	// (0.97 means each successive login is 3% more precise, floored
	// at half the initial error).
	PracticeRate float64
	// FirstPasswordID numbers generated passwords from this ID.
	FirstPasswordID int
	// Seed fixes the stream.
	Seed uint64
	// Workers bounds the generation fan-out: 0 uses one worker per
	// CPU, 1 forces serial generation. Each participant draws from its
	// own rng stream split off the seed before any parallel work
	// starts (the study.Run pattern), so the cohort is byte-identical
	// for every value.
	Workers int
}

// DefaultCohort mirrors the paper's header numbers for one image.
func DefaultCohort(img *imagegen.Image, seed uint64) CohortConfig {
	participants := 96
	firstID := 0
	if img.Name == "pool" {
		participants = 95
		firstID = 10000
	}
	return CohortConfig{
		Image:                   img,
		Participants:            participants,
		PasswordsPerParticipant: 481.0 / 191.0,
		LoginsPerPassword:       3339.0 / 481.0,
		Clicks:                  5,
		MinSeparation:           15,
		Error:                   DefaultErrorModel(),
		SkillSpread:             0.25,
		PracticeRate:            0.985,
		FirstPasswordID:         firstID,
		Seed:                    seed,
	}
}

// Validate reports configuration errors.
func (c CohortConfig) Validate() error {
	if c.Image == nil {
		return fmt.Errorf("study: nil image")
	}
	if err := c.Image.Validate(); err != nil {
		return err
	}
	if c.Participants <= 0 {
		return fmt.Errorf("study: participants %d must be positive", c.Participants)
	}
	if c.PasswordsPerParticipant <= 0 {
		return fmt.Errorf("study: passwords per participant %v must be positive", c.PasswordsPerParticipant)
	}
	if c.LoginsPerPassword < 0 {
		return fmt.Errorf("study: negative logins per password")
	}
	if c.Clicks <= 0 {
		return fmt.Errorf("study: clicks %d must be positive", c.Clicks)
	}
	if c.SkillSpread < 0 || c.SkillSpread > 2 {
		return fmt.Errorf("study: skill spread %v outside [0, 2]", c.SkillSpread)
	}
	if c.PracticeRate <= 0 || c.PracticeRate > 1 {
		return fmt.Errorf("study: practice rate %v outside (0, 1]", c.PracticeRate)
	}
	return c.Error.Validate()
}

// RunCohort simulates the cohort for one image. Participants are
// independent: each draws from its own rng stream (split off the seed
// serially, in participant order — the study.Run pattern), and the
// worker pool generates them in blocks of 64 consecutive participants,
// so the cohort is byte-identical for a fixed seed at any worker count.
// Password IDs are assigned serially in participant order, because a
// participant's password count is random and IDs must stay
// sequential from FirstPasswordID. RunCohort is the materializing
// shell over RunCohortStream — the golden tests pin the two paths to
// the same bytes by construction.
func RunCohort(cfg CohortConfig) (*dataset.Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	size := cfg.Image.Size
	d := &dataset.Dataset{Image: cfg.Image.Name, Width: size.W, Height: size.H}
	err := RunCohortStream(cfg, func(p Participant) error {
		d.Passwords = append(d.Passwords, p.Passwords...)
		d.Logins = append(d.Logins, p.Logins...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("study: cohort generated invalid dataset: %w", err)
	}
	return d, nil
}

// sampleCount draws a positive integer with the given mean: floor(mean)
// plus a Bernoulli for the fractional part (variance-light, mean-exact,
// and never zero for mean >= 1).
func sampleCount(r *rng.Source, mean float64) int {
	if mean < 1 {
		mean = 1
	}
	n := int(mean)
	if r.Float64() < mean-float64(n) {
		n++
	}
	return n
}

// scaled returns the error model with every sigma multiplied by f.
func (e ErrorModel) scaled(f float64) ErrorModel {
	e.MotorSigma *= f
	e.SlipSigma *= f
	e.Slip2Sigma *= f
	return e
}
