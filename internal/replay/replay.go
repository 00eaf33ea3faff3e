// Package replay is the shared token-replay layer under the parallel
// experiment engine: it precomputes each password's enrollment tokens
// exactly once and answers batched "would this login be accepted?"
// queries against them.
//
// Every replaying experiment — the online attack's per-account guess
// loop, the success-rate tally, the false accept/reject tables — used
// to interleave enrollment with matching, which has two costs: tokens
// were recomputed or reallocated per password, and the enrollment of a
// stateful scheme (Robust + RandomSafe policy) was entangled with the
// replay loop, forcing the whole experiment serial. A Set separates
// the phases. Compile runs enrollment serially on the calling
// goroutine, in password order, so a stateful scheme consumes its RNG
// exactly as the pre-replay code did; the compiled Set is then
// immutable, and matching (Scheme.Locate is pure for every scheme) can
// fan out across any number of goroutines.
//
// The buffer discipline follows passhash.Hasher: a Set is reusable —
// Compile overwrites the previous contents, growing the flattened
// token buffer only when a larger input arrives — so sweep loops
// amortize all replay-layer allocations across iterations.
package replay

import (
	"fmt"

	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
)

// Set holds the precomputed enrollment tokens of a password list under
// one scheme. Compile (re)fills a Set; after that the Set is immutable
// and safe for concurrent readers. The zero value is an empty Set
// ready for its first Compile.
type Set struct {
	scheme core.Scheme
	// tokens is the flattened token storage: password i's tokens are
	// tokens[offs[i]:offs[i+1]]. One buffer for the whole password
	// file, reused across Compiles, instead of one slice per password.
	tokens []core.Token
	offs   []int32
	// byID maps a dataset password ID to its ordinal; nil for Sets
	// compiled from raw point sequences.
	byID map[int]int32
}

// Compile enrolls every password of d under scheme, replacing the
// Set's previous contents. Enrollment runs serially in password order,
// so schemes with mutable state (Robust + RandomSafe) draw from their
// RNG in exactly the order a serial replay would.
func (s *Set) Compile(d *dataset.Dataset, scheme core.Scheme) {
	total := 0
	for i := range d.Passwords {
		total += len(d.Passwords[i].Clicks)
	}
	s.reset(scheme, len(d.Passwords))
	s.grow(total)
	if s.byID == nil {
		s.byID = make(map[int]int32, len(d.Passwords))
	} else {
		clear(s.byID)
	}
	for i := range d.Passwords {
		p := &d.Passwords[i]
		s.byID[p.ID] = int32(i)
		for j := range p.Clicks {
			s.tokens = append(s.tokens, scheme.Enroll(p.Clicks[j].Point()))
		}
		s.offs = append(s.offs, int32(len(s.tokens)))
	}
}

// CompilePoints enrolls raw click sequences (guess lists, synthetic
// passwords) instead of a dataset. ByID lookups are disabled.
func (s *Set) CompilePoints(pws [][]geom.Point, scheme core.Scheme) {
	total := 0
	for _, pts := range pws {
		total += len(pts)
	}
	s.reset(scheme, len(pws))
	s.grow(total)
	s.byID = nil
	for _, pts := range pws {
		for _, p := range pts {
			s.tokens = append(s.tokens, scheme.Enroll(p))
		}
		s.offs = append(s.offs, int32(len(s.tokens)))
	}
}

// grow reserves capacity for the whole token buffer up front, so
// compilation costs one allocation instead of log(n) growth copies.
func (s *Set) grow(total int) {
	if cap(s.tokens) < total {
		s.tokens = make([]core.Token, 0, total)
	}
}

// reset prepares the buffers for n passwords, keeping capacity.
func (s *Set) reset(scheme core.Scheme, n int) {
	s.scheme = scheme
	s.tokens = s.tokens[:0]
	if cap(s.offs) < n+1 {
		s.offs = make([]int32, 0, n+1)
	} else {
		s.offs = s.offs[:0]
	}
	s.offs = append(s.offs, 0)
}

// Compile is the one-shot constructor: a fresh Set over d.
func Compile(d *dataset.Dataset, scheme core.Scheme) *Set {
	s := &Set{}
	s.Compile(d, scheme)
	return s
}

// CompilePoints is the one-shot constructor over raw click sequences.
func CompilePoints(pws [][]geom.Point, scheme core.Scheme) *Set {
	s := &Set{}
	s.CompilePoints(pws, scheme)
	return s
}

// Len returns the number of compiled passwords.
func (s *Set) Len() int { return len(s.offs) - 1 }

// Scheme returns the scheme the Set was compiled under.
func (s *Set) Scheme() core.Scheme { return s.scheme }

// Tokens returns password i's enrollment tokens. The slice aliases the
// Set's storage: read-only, valid until the next Compile.
func (s *Set) Tokens(i int) []core.Token {
	return s.tokens[s.offs[i]:s.offs[i+1]]
}

// Ordinal maps a dataset password ID to its index in the Set. For a
// Set compiled from d, the ordinal of an ID is the index of that
// password in d.Passwords, whatever the IDs' base or order, so
// &d.Passwords[ord] is the password itself: replay loops use that in
// place of a search by ID.
func (s *Set) Ordinal(id int) (int, bool) {
	i, ok := s.byID[id]
	return int(i), ok
}

// Accepts reports whether candidate clicks would be accepted as a
// login against password i: every click must land in the enrolled
// grid square of the corresponding token (a length mismatch is a
// rejection, matching the login rule). Allocation-free and safe to
// call from many goroutines at once.
func (s *Set) Accepts(i int, candidate []geom.Point) bool {
	tokens := s.Tokens(i)
	if len(candidate) != len(tokens) {
		return false
	}
	for j := range tokens {
		if !core.Accepts(s.scheme, tokens[j], candidate[j]) {
			return false
		}
	}
	return true
}

// AcceptsID is Accepts keyed by dataset password ID; it errors on an
// unknown ID so replay loops surface dangling login references the
// same way the serial replays did.
func (s *Set) AcceptsID(id int, candidate []geom.Point) (bool, error) {
	i, ok := s.Ordinal(id)
	if !ok {
		return false, fmt.Errorf("replay: login references unknown password %d", id)
	}
	return s.Accepts(i, candidate), nil
}

// AcceptsLogin is AcceptsID over a login's recorded clicks directly,
// without materializing a point slice per login (Login.Points
// allocates; a replay over thousands of logins must not).
func (s *Set) AcceptsLogin(id int, clicks []dataset.Click) (bool, error) {
	i, ok := s.Ordinal(id)
	if !ok {
		return false, fmt.Errorf("replay: login references unknown password %d", id)
	}
	tokens := s.Tokens(i)
	if len(clicks) != len(tokens) {
		return false, nil
	}
	for j := range tokens {
		if !core.Accepts(s.scheme, tokens[j], clicks[j].Point()) {
			return false, nil
		}
	}
	return true, nil
}
