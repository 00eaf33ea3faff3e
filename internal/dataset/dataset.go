// Package dataset defines the data collected by a PassPoints user
// study — passwords (ordered click-point sequences) and login attempts
// against them — together with JSON and CSV round-trips.
//
// The paper's analyses replay a field study of 191 participants (481
// passwords, 3339 login attempts over two 451x331 images); package
// study synthesizes datasets of this shape, and packages analysis and
// attack consume them.
package dataset

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"clickpass/internal/geom"
)

// Click is one click-point at whole-pixel granularity.
type Click struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// Point converts to the sub-pixel geometry type.
func (c Click) Point() geom.Point { return geom.Pt(c.X, c.Y) }

// FromPoint converts a sub-pixel point (assumed pixel-aligned) to a
// Click.
func FromPoint(p geom.Point) Click {
	return Click{X: p.X.Pixels(), Y: p.Y.Pixels()}
}

// Password is one enrolled graphical password.
type Password struct {
	ID     int     `json:"id"`
	User   string  `json:"user"`
	Image  string  `json:"image"`
	Clicks []Click `json:"clicks"`
}

// Points returns the click sequence as geometry points.
func (p *Password) Points() []geom.Point {
	pts := make([]geom.Point, len(p.Clicks))
	for i, c := range p.Clicks {
		pts[i] = c.Point()
	}
	return pts
}

// Login is one login attempt against a password.
type Login struct {
	PasswordID int     `json:"password_id"`
	Attempt    int     `json:"attempt"`
	Clicks     []Click `json:"clicks"`
}

// Points returns the attempted click sequence as geometry points.
func (l *Login) Points() []geom.Point {
	pts := make([]geom.Point, len(l.Clicks))
	for i, c := range l.Clicks {
		pts[i] = c.Point()
	}
	return pts
}

// Dataset is a complete study: the image it was collected on, the
// passwords created, and the login attempts recorded.
type Dataset struct {
	Image     string     `json:"image"`
	Width     int        `json:"width"`
	Height    int        `json:"height"`
	Passwords []Password `json:"passwords"`
	Logins    []Login    `json:"logins"`
}

// Size returns the image extent.
func (d *Dataset) Size() geom.Size { return geom.Size{W: d.Width, H: d.Height} }

// PasswordByID returns the password with the given ID, or nil. It is a
// linear scan over Passwords, meant for tests and one-off lookups; a
// loop over logins should compile a replay.Set and index Passwords by
// its Ordinal instead.
func (d *Dataset) PasswordByID(id int) *Password {
	for i := range d.Passwords {
		if d.Passwords[i].ID == id {
			return &d.Passwords[i]
		}
	}
	return nil
}

// Validate checks referential integrity: clicks inside the image,
// logins referencing existing passwords, matching click counts.
func (d *Dataset) Validate() error {
	if d.Width <= 0 || d.Height <= 0 {
		return fmt.Errorf("dataset: empty image %dx%d", d.Width, d.Height)
	}
	size := d.Size()
	byID := make(map[int]*Password, len(d.Passwords))
	for i := range d.Passwords {
		p := &d.Passwords[i]
		if _, dup := byID[p.ID]; dup {
			return fmt.Errorf("dataset: duplicate password id %d", p.ID)
		}
		byID[p.ID] = p
		if len(p.Clicks) == 0 {
			return fmt.Errorf("dataset: password %d has no clicks", p.ID)
		}
		for j, c := range p.Clicks {
			if !size.Contains(c.Point()) {
				return fmt.Errorf("dataset: password %d click %d at (%d,%d) outside image", p.ID, j, c.X, c.Y)
			}
		}
	}
	for i := range d.Logins {
		l := &d.Logins[i]
		p, ok := byID[l.PasswordID]
		if !ok {
			return fmt.Errorf("dataset: login %d references unknown password %d", i, l.PasswordID)
		}
		if len(l.Clicks) != len(p.Clicks) {
			return fmt.Errorf("dataset: login %d has %d clicks, password %d has %d",
				i, len(l.Clicks), p.ID, len(p.Clicks))
		}
		for j, c := range l.Clicks {
			if !size.Contains(c.Point()) {
				return fmt.Errorf("dataset: login %d click %d at (%d,%d) outside image", i, j, c.X, c.Y)
			}
		}
	}
	return nil
}

// WriteJSON encodes the dataset to w.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ReadJSON decodes and validates a dataset from r.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decoding: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// WriteClicksCSV writes one row per password click:
// password_id,user,image,click_index,x,y.
func (d *Dataset) WriteClicksCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"password_id", "user", "image", "click_index", "x", "y"}); err != nil {
		return err
	}
	for i := range d.Passwords {
		p := &d.Passwords[i]
		for j, c := range p.Clicks {
			row := []string{
				strconv.Itoa(p.ID), p.User, p.Image, strconv.Itoa(j),
				strconv.Itoa(c.X), strconv.Itoa(c.Y),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteLoginsCSV writes one row per login click:
// password_id,attempt,click_index,x,y.
func (d *Dataset) WriteLoginsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"password_id", "attempt", "click_index", "x", "y"}); err != nil {
		return err
	}
	for i := range d.Logins {
		l := &d.Logins[i]
		for j, c := range l.Clicks {
			row := []string{
				strconv.Itoa(l.PasswordID), strconv.Itoa(l.Attempt),
				strconv.Itoa(j), strconv.Itoa(c.X), strconv.Itoa(c.Y),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Merge combines datasets collected on the same image into one,
// renumbering nothing: password IDs must already be globally unique.
func Merge(parts ...*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dataset: nothing to merge")
	}
	out := &Dataset{
		Image:  parts[0].Image,
		Width:  parts[0].Width,
		Height: parts[0].Height,
	}
	for _, p := range parts {
		if p.Width != out.Width || p.Height != out.Height {
			return nil, fmt.Errorf("dataset: size mismatch %dx%d vs %dx%d",
				p.Width, p.Height, out.Width, out.Height)
		}
		out.Passwords = append(out.Passwords, p.Passwords...)
		out.Logins = append(out.Logins, p.Logins...)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
