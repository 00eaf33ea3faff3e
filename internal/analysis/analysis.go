// Package analysis replays study datasets under both discretization
// schemes and measures the false accepts and false rejects the paper
// defines (§2.2.1, §4.1):
//
//   - false reject: a login that falls within the centered-tolerance
//     square of every original click-point yet is rejected by Robust
//     Discretization, because some click left the Robust grid square.
//   - false accept: a login accepted by Robust Discretization although
//     some click lies outside the centered-tolerance square.
//
// Centered Discretization has zero of both by construction, which the
// engine verifies as a cross-check on every run.
package analysis

import (
	"fmt"
	"sync"

	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/par"
	"clickpass/internal/replay"
	"clickpass/internal/stats"
)

// Row is one line of Table 1 or Table 2.
type Row struct {
	// RobustSide and CenteredSide are the square sides (pixels) used
	// for each scheme in this comparison.
	RobustSide   int
	CenteredSide int
	// RobustRPx and CenteredRPx are the guaranteed tolerances in
	// pixels (Robust: side/6; Centered: (side-1)/2).
	RobustRPx   float64
	CenteredRPx float64
	// Logins is the number of login attempts replayed.
	Logins int
	// FalseAccepts / FalseRejects count login attempts (not clicks).
	FalseAccepts int
	FalseRejects int
	// ClickFalseAccepts / ClickFalseRejects count individual clicks.
	ClickFalseAccepts int
	ClickFalseRejects int
	Clicks            int
}

// FalseAcceptPct returns the login-level false-accept rate in percent.
func (r Row) FalseAcceptPct() float64 { return pct(r.FalseAccepts, r.Logins) }

// FalseRejectPct returns the login-level false-reject rate in percent.
func (r Row) FalseRejectPct() float64 { return pct(r.FalseRejects, r.Logins) }

// ClickFalseAcceptPct returns the per-click false-accept rate in percent.
func (r Row) ClickFalseAcceptPct() float64 { return pct(r.ClickFalseAccepts, r.Clicks) }

// ClickFalseRejectPct returns the per-click false-reject rate in percent.
func (r Row) ClickFalseRejectPct() float64 { return pct(r.ClickFalseRejects, r.Clicks) }

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// Compare replays every login in the datasets against Robust squares
// of robustSide and centered tolerance squares of centeredSide.
// Replay fans out across per-dataset cells (workers: 0 = one per CPU,
// 1 = serial); each dataset gets its own scheme pair seeded
// seed+index, so the merged row is identical for every worker count —
// including under the stateful RandomSafe policy, whose RNG stream is
// per-dataset rather than shared.
func Compare(dsets []*dataset.Dataset, robustSide, centeredSide int, policy core.RobustPolicy, seed uint64, workers int) (Row, error) {
	rows, err := tableRows(dsets, [][2]int{{robustSide, centeredSide}}, policy, seed, workers)
	if err != nil {
		return Row{}, err
	}
	return rows[0], nil
}

// cellRow replays one dataset against one scheme pair. The two replay
// Sets belong to the calling worker and are recompiled (buffers
// reused) for this cell's schemes.
func cellRow(d *dataset.Dataset, rset, cset *replay.Set, robustSide, centeredSide int, policy core.RobustPolicy, seed uint64) (Row, error) {
	robust, err := core.NewRobust2D(robustSide, policy, seed)
	if err != nil {
		return Row{}, err
	}
	centered, err := core.NewCentered(centeredSide)
	if err != nil {
		return Row{}, err
	}
	row := Row{
		RobustSide:   robustSide,
		CenteredSide: centeredSide,
		RobustRPx:    float64(robustSide) / 6,
		CenteredRPx:  float64(centeredSide-1) / 2,
	}
	if err := replayCompare(d, rset, cset, robust, centered, &row); err != nil {
		return Row{}, err
	}
	return row, nil
}

// add accumulates another cell's counts into r.
func (r *Row) add(o Row) {
	r.Logins += o.Logins
	r.FalseAccepts += o.FalseAccepts
	r.FalseRejects += o.FalseRejects
	r.ClickFalseAccepts += o.ClickFalseAccepts
	r.ClickFalseRejects += o.ClickFalseRejects
	r.Clicks += o.Clicks
}

// setPair is a worker-reusable pair of compiled replay Sets (robust,
// centered), pooled across tableRows cells so buffers amortize.
type setPair struct {
	robust, centered replay.Set
}

// tableRows evaluates every (size pair, dataset) cell of a table on
// the worker pool and merges the per-dataset cells into one row per
// size pair, in order. Flattening both axes into a single task list
// keeps all workers busy even when datasets differ in size; the
// replay Sets each cell compiles into come from a pool, so the token
// buffers amortize across cells (one pair per concurrently running
// worker) instead of fresh per-password allocations in every cell.
func tableRows(dsets []*dataset.Dataset, pairs [][2]int, policy core.RobustPolicy, seed uint64, workers int) ([]Row, error) {
	if len(dsets) == 0 {
		return nil, fmt.Errorf("analysis: no datasets")
	}
	pool := sync.Pool{New: func() any { return new(setPair) }}
	nd := len(dsets)
	cells, err := par.Map(workers, len(pairs)*nd, func(k int) (Row, error) {
		pi, di := k/nd, k%nd
		sets := pool.Get().(*setPair)
		defer pool.Put(sets)
		return cellRow(dsets[di], &sets.robust, &sets.centered, pairs[pi][0], pairs[pi][1], policy, seed+uint64(di))
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(pairs))
	for pi := range pairs {
		row := cells[pi*nd]
		for _, cell := range cells[pi*nd+1 : (pi+1)*nd] {
			row.add(cell)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func replayCompare(d *dataset.Dataset, rset, cset *replay.Set, robust, centered core.Scheme, row *Row) error {
	// Compile enrolls serially in password order, so a stateful Robust
	// policy (RandomSafe) consumes its RNG exactly as the pre-replay
	// per-password loop did; the centered scheme is stateless, so
	// splitting the interleaved enrollment into two passes cannot
	// change any token.
	rset.Compile(d, robust)
	cset.Compile(d, centered)
	for i := range d.Logins {
		l := &d.Logins[i]
		ord, ok := rset.Ordinal(l.PasswordID)
		if !ok {
			return fmt.Errorf("analysis: login references unknown password %d", l.PasswordID)
		}
		rtokens, ctokens := rset.Tokens(ord), cset.Tokens(ord)
		loginRobustOK, loginCenteredOK := true, true
		orig := &d.Passwords[ord] // Compile gives d.Passwords[i] ordinal i
		for j := range l.Clicks {
			pt := l.Clicks[j].Point()
			rOK := core.Accepts(robust, rtokens[j], pt)
			cOK := core.Accepts(centered, ctokens[j], pt)
			// Cross-check the paper's definitional claim: centered
			// acceptance must coincide with centered-tolerance
			// membership around the original click.
			origPt := orig.Clicks[j].Point()
			if cOK != (origPt.Chebyshev(pt) <= centered.MaxAccepted()) {
				return fmt.Errorf("analysis: centered scheme deviated from centered tolerance at password %d click %d", l.PasswordID, j)
			}
			if rOK && !cOK {
				row.ClickFalseAccepts++
			}
			if cOK && !rOK {
				row.ClickFalseRejects++
			}
			loginRobustOK = loginRobustOK && rOK
			loginCenteredOK = loginCenteredOK && cOK
			row.Clicks++
		}
		if loginRobustOK && !loginCenteredOK {
			row.FalseAccepts++
		}
		if loginCenteredOK && !loginRobustOK {
			row.FalseRejects++
		}
		row.Logins++
	}
	return nil
}

// Table1Sizes are the equal-square-size comparisons of Table 1.
var Table1Sizes = []int{9, 13, 19}

// Table1 keeps the grid-square size equal for both schemes (Figure 5):
// Robust trades its whole square for a smaller guaranteed r, producing
// both false accepts and false rejects. Cells (size x dataset) are
// evaluated on the worker pool; 0 workers means one per CPU.
func Table1(dsets []*dataset.Dataset, policy core.RobustPolicy, seed uint64, workers int) ([]Row, error) {
	pairs := make([][2]int, len(Table1Sizes))
	for i, s := range Table1Sizes {
		pairs[i] = [2]int{s, s}
	}
	return tableRows(dsets, pairs, policy, seed, workers)
}

// Table2Rs are the equal-r comparisons of Table 2 (pixels).
var Table2Rs = []int{4, 6, 9}

// Table2 keeps the guaranteed tolerance r equal (Figure 6): Robust
// squares grow to 6r so false rejects vanish but false accepts remain.
// Cells (r x dataset) are evaluated on the worker pool.
func Table2(dsets []*dataset.Dataset, policy core.RobustPolicy, seed uint64, workers int) ([]Row, error) {
	pairs := make([][2]int, len(Table2Rs))
	for i, r := range Table2Rs {
		pairs[i] = [2]int{6 * r, 2*r + 1}
	}
	return tableRows(dsets, pairs, policy, seed, workers)
}

// WorstCase demonstrates Figure 1's geometry for a given Robust square
// side: it scans origins until it finds a click-point whose enrolled
// Robust square leaves it exactly r from one edge, and reports the
// asymmetric accepted displacements.
type WorstCase struct {
	Origin        geom.Point
	Region        geom.Rect
	LeftSlackPx   float64 // accepted displacement toward the near edge
	RightSlackPx  float64 // accepted displacement toward the far edge
	GuaranteedRPx float64
	RMaxPx        float64
}

// FindWorstCase locates a maximally off-center Robust enrollment.
// The 3·side × 3·side origin scan is row-striped across workers
// goroutines (0 = one per CPU, 1 = serial): each stripe scans one x
// column over all y and reports its local first maximum; stripes merge
// in x order with a strict comparison, so the winner is always the
// lowest-(x, y) origin among equal asymmetries — exactly the serial
// scan's first-maximum tie-break. Stateful schemes (RandomSafe) fall
// back to a serial scan so their RNG stream is consumed in origin
// order regardless of the requested worker count.
func FindWorstCase(side int, policy core.RobustPolicy, seed uint64, workers int) (WorstCase, error) {
	robust, err := core.NewRobust2D(side, policy, seed)
	if err != nil {
		return WorstCase{}, err
	}
	if !core.ConcurrencySafe(robust) {
		workers = 1
	}
	type stripeBest struct {
		asym float64
		wc   WorstCase
	}
	bests, err := par.Map(workers, 3*side, func(x int) (stripeBest, error) {
		best := stripeBest{asym: -1}
		for y := 0; y < 3*side; y++ {
			p := geom.Pt(x, y)
			tok := robust.Enroll(p)
			region := robust.Region(tok)
			left := (p.X - region.MinX).Float()
			right := (region.MaxX - p.X).Float()
			asym := right - left
			if left > right {
				asym = left - right
			}
			if asym > best.asym {
				best = stripeBest{
					asym: asym,
					wc: WorstCase{
						Origin:        p,
						Region:        region,
						LeftSlackPx:   left,
						RightSlackPx:  right,
						GuaranteedRPx: robust.GuaranteedR().Float(),
						RMaxPx:        robust.MaxAccepted().Float(),
					},
				}
			}
		}
		return best, nil
	})
	if err != nil {
		return WorstCase{}, err
	}
	worst := stripeBest{asym: -1}
	for _, b := range bests {
		if b.asym > worst.asym {
			worst = b
		}
	}
	return worst.wc, nil
}

// SuccessRate is the overall login acceptance of one scheme over a
// dataset — the usability number a deployment cares about. The paper's
// argument in one metric: at equal square sizes Robust loses real
// logins to false rejects; to recover them it must inflate its squares
// (equal r), paying in password space instead.
type SuccessRate struct {
	Scheme   string
	SidePx   int
	Logins   int
	Accepted int
}

// AcceptedPct returns the acceptance rate in percent.
func (s SuccessRate) AcceptedPct() float64 { return pct(s.Accepted, s.Logins) }

// successChunk is the login-replay granularity of Success's fan-out:
// big enough that chunk bookkeeping is noise, small enough that a
// dataset's ~2400 logins split across every core.
const successChunk = 256

// Success replays every login under the scheme and counts acceptances.
// Each dataset's passwords are enrolled once through the replay layer
// (serially, in dataset order, so stateful schemes consume their RNG
// exactly as a serial replay would); the login replays then fan out in
// chunks per dataset across workers goroutines (0 = one per CPU, 1 =
// serial). Matching is pure, so the tally is identical at every worker
// count, and a dangling login reference is always reported for the
// earliest offending login.
func Success(dsets []*dataset.Dataset, scheme core.Scheme, workers int) (SuccessRate, error) {
	if len(dsets) == 0 {
		return SuccessRate{}, fmt.Errorf("analysis: no datasets")
	}
	out := SuccessRate{Scheme: scheme.Name(), SidePx: scheme.SquareSide().Pixels()}
	sets := make([]*replay.Set, len(dsets))
	type chunk struct{ ds, lo, hi int }
	var chunks []chunk
	for i, d := range dsets {
		sets[i] = replay.Compile(d, scheme)
		for lo := 0; lo < len(d.Logins); lo += successChunk {
			hi := lo + successChunk
			if hi > len(d.Logins) {
				hi = len(d.Logins)
			}
			chunks = append(chunks, chunk{ds: i, lo: lo, hi: hi})
		}
	}
	type tally struct{ logins, accepted int }
	tallies, err := par.Map(workers, len(chunks), func(k int) (tally, error) {
		c := chunks[k]
		d, set := dsets[c.ds], sets[c.ds]
		var t tally
		for i := c.lo; i < c.hi; i++ {
			l := &d.Logins[i]
			ok, err := set.AcceptsLogin(l.PasswordID, l.Clicks)
			if err != nil {
				return tally{}, fmt.Errorf("analysis: %w", err)
			}
			t.logins++
			if ok {
				t.accepted++
			}
		}
		return t, nil
	})
	if err != nil {
		return SuccessRate{}, err
	}
	for _, t := range tallies {
		out.Logins += t.logins
		out.Accepted += t.accepted
	}
	return out, nil
}

// FalseAcceptCI returns the 95% Wilson interval of the false-accept
// rate, in percent.
func (r Row) FalseAcceptCI() (lo, hi float64) {
	return stats.Proportion{K: r.FalseAccepts, N: r.Logins}.Wilson95Pct()
}

// FalseRejectCI returns the 95% Wilson interval of the false-reject
// rate, in percent.
func (r Row) FalseRejectCI() (lo, hi float64) {
	return stats.Proportion{K: r.FalseRejects, N: r.Logins}.Wilson95Pct()
}
