// Package passpoints implements a PassPoints-style click-based
// graphical password system (Wiedenbeck et al.) on top of a pluggable
// discretization scheme from internal/core.
//
// A password is an ordered sequence of click-points on an image. At
// enrollment each point is discretized into a clear grid identifier and
// a secret square index; all indices and identifiers are hashed
// together (package passhash) and the system stores only the clear
// identifiers, the salt, and the digest. At login the candidate clicks
// are discretized under the stored identifiers and the digest is
// recomputed and compared.
package passpoints

import (
	"encoding/json"
	"errors"
	"fmt"

	"clickpass/internal/core"
	"clickpass/internal/fixed"
	"clickpass/internal/geom"
	"clickpass/internal/passhash"
)

// DefaultClicks is the click count used by PassPoints deployments and
// throughout the paper's evaluation.
const DefaultClicks = 5

// Config describes a PassPoints deployment.
type Config struct {
	// Image is the background image extent in pixels.
	Image geom.Size
	// Clicks is the number of click-points per password.
	Clicks int
	// Scheme is the discretization scheme.
	Scheme core.Scheme
	// Iterations is the hash iteration count (passhash.DefaultIterations
	// if zero).
	Iterations int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Image.W <= 0 || c.Image.H <= 0 {
		return fmt.Errorf("passpoints: image %v is empty", c.Image)
	}
	if c.Clicks <= 0 {
		return fmt.Errorf("passpoints: clicks %d must be positive", c.Clicks)
	}
	if c.Scheme == nil {
		return fmt.Errorf("passpoints: nil scheme")
	}
	if c.Iterations < 0 {
		return fmt.Errorf("passpoints: negative iterations")
	}
	return nil
}

func (c Config) iterations() int {
	if c.Iterations == 0 {
		return passhash.DefaultIterations
	}
	return c.Iterations
}

// SchemeKind identifies a discretization scheme in stored records.
type SchemeKind string

// Scheme kinds stored in records.
const (
	KindCentered SchemeKind = "centered"
	KindRobust   SchemeKind = "robust"
)

// ClearID is the serializable clear part of one click-point: the grid
// identifier stored by the system in plain text.
type ClearID struct {
	// DX, DY are Centered Discretization offsets in sub-pixel units.
	DX int64 `json:"dx"`
	DY int64 `json:"dy"`
	// Grid is the Robust Discretization grid index.
	Grid uint8 `json:"grid"`
}

func clearFromCore(c core.Clear) ClearID {
	return ClearID{DX: int64(c.DX), DY: int64(c.DY), Grid: c.Grid}
}

func (c ClearID) toCore() core.Clear {
	return core.Clear{DX: fixed.Sub(c.DX), DY: fixed.Sub(c.DY), Grid: c.Grid}
}

// Record is everything the system persists for one account. It is what
// an offline attacker obtains by stealing the password file: the clear
// grid identifiers, salt, iteration count, and digest — but not the
// click-points or their square indices.
type Record struct {
	User         string     `json:"user"`
	Kind         SchemeKind `json:"kind"`
	SquareSidePx int        `json:"square_side_px"`
	ImageW       int        `json:"image_w"`
	ImageH       int        `json:"image_h"`
	Clears       []ClearID  `json:"clears"`
	Salt         []byte     `json:"salt"`
	Iterations   int        `json:"iterations"`
	Digest       []byte     `json:"digest"`
}

// Enroll creates the stored record for a fresh password. The clicks
// must all fall inside the configured image.
func Enroll(cfg Config, user string, clicks []geom.Point) (*Record, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkClicks(cfg, clicks); err != nil {
		return nil, err
	}
	params, err := passhash.NewParams(cfg.iterations())
	if err != nil {
		return nil, err
	}
	tokens := make([]core.Token, len(clicks))
	clears := make([]ClearID, len(clicks))
	for i, p := range clicks {
		tokens[i] = cfg.Scheme.Enroll(p)
		clears[i] = clearFromCore(tokens[i].Clear)
	}
	digest, err := passhash.Digest(params, tokens)
	if err != nil {
		return nil, err
	}
	kind := KindCentered
	if cfg.Scheme.Name() == "robust" {
		kind = KindRobust
	}
	return &Record{
		User:         user,
		Kind:         kind,
		SquareSidePx: int(cfg.Scheme.SquareSide() / fixed.Scale),
		ImageW:       cfg.Image.W,
		ImageH:       cfg.Image.H,
		Clears:       clears,
		Salt:         params.Salt,
		Iterations:   params.Iterations,
		Digest:       digest,
	}, nil
}

// ErrBadRecord reports a stored record whose hash parameters cannot
// verify any password: no iterations, an empty salt, or a digest of
// the wrong length. It marks a corrupt store, not a wrong password.
var ErrBadRecord = errors.New("passpoints: corrupt record")

// Verify checks a login attempt against a stored record. It never
// reveals which click-point failed. A record that fails its own hash
// parameter check yields an error wrapping ErrBadRecord, whatever the
// clicks.
func Verify(cfg Config, rec *Record, clicks []geom.Point) (bool, error) {
	if err := cfg.Validate(); err != nil {
		return false, err
	}
	if rec == nil {
		return false, fmt.Errorf("passpoints: nil record")
	}
	params := passhash.Params{Iterations: rec.Iterations, Salt: rec.Salt}
	if err := params.Validate(); err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	if len(rec.Digest) != passhash.Size {
		return false, fmt.Errorf("%w: digest is %d bytes, want %d", ErrBadRecord, len(rec.Digest), passhash.Size)
	}
	if len(clicks) != len(rec.Clears) {
		// Wrong click count is simply a failed login, not an error: the
		// UI may allow variable-length entries.
		return false, nil
	}
	if err := checkClicks(cfg, clicks); err != nil {
		return false, err
	}
	tokens := make([]core.Token, len(clicks))
	for i, p := range clicks {
		clear := rec.Clears[i].toCore()
		tokens[i] = core.Token{Clear: clear, Secret: cfg.Scheme.Locate(p, clear)}
	}
	return passhash.Verify(params, rec.Digest, tokens)
}

func checkClicks(cfg Config, clicks []geom.Point) error {
	if len(clicks) != cfg.Clicks {
		return fmt.Errorf("passpoints: got %d clicks, want %d", len(clicks), cfg.Clicks)
	}
	for i, p := range clicks {
		if !cfg.Image.Contains(p) {
			return fmt.Errorf("passpoints: click %d at %v outside image %v", i, p, cfg.Image)
		}
	}
	return nil
}

// SchemeForRecord reconstructs a scheme able to verify the record. The
// grid-selection policy is irrelevant for verification (it only guides
// enrollment), so Robust records verify under any policy.
func SchemeForRecord(rec *Record) (core.Scheme, error) {
	if rec == nil {
		return nil, fmt.Errorf("passpoints: nil record")
	}
	switch rec.Kind {
	case KindCentered:
		return core.NewCentered(rec.SquareSidePx)
	case KindRobust:
		return core.NewRobust2D(rec.SquareSidePx, core.MostCentered, 0)
	default:
		return nil, fmt.Errorf("passpoints: unknown scheme kind %q", rec.Kind)
	}
}

// Marshal encodes the record as JSON.
func (r *Record) Marshal() ([]byte, error) { return json.Marshal(r) }

// UnmarshalRecord decodes a record from JSON and sanity-checks it.
func UnmarshalRecord(data []byte) (*Record, error) {
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("passpoints: decoding record: %w", err)
	}
	if r.SquareSidePx <= 0 || r.Iterations <= 0 || len(r.Digest) == 0 {
		return nil, fmt.Errorf("passpoints: record for %q is malformed", r.User)
	}
	return &r, nil
}
