package clickpass

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the result and reporting its headline
// numbers as custom metrics), plus micro-benchmarks of the primitives
// and ablation benches for the design choices called out in DESIGN.md.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkTable2 -benchtime=1x

import (
	"sync"
	"testing"

	"clickpass/internal/analysis"
	"clickpass/internal/attack"
	"clickpass/internal/ccp"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/geom"
	"clickpass/internal/hotspot"
	"clickpass/internal/imagegen"
	"clickpass/internal/passhash"
	"clickpass/internal/passpoints"
	"clickpass/internal/rng"
	"clickpass/internal/space"
	"clickpass/internal/study"
)

var (
	benchOnce  sync.Once
	benchField map[string]*dataset.Dataset
	benchLab   map[string]*dataset.Dataset
)

func benchData(b *testing.B) (map[string]*dataset.Dataset, map[string]*dataset.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		benchField = make(map[string]*dataset.Dataset)
		benchLab = make(map[string]*dataset.Dataset)
		for i, img := range imagegen.Gallery() {
			f, err := study.Run(study.FieldConfig(img, uint64(42+i)))
			if err != nil {
				b.Fatal(err)
			}
			l, err := study.Run(study.LabConfig(img, uint64(142+i)))
			if err != nil {
				b.Fatal(err)
			}
			benchField[img.Name] = f
			benchLab[img.Name] = l
		}
	})
	return benchField, benchLab
}

func benchFieldAll(b *testing.B) []*dataset.Dataset {
	field, _ := benchData(b)
	out := make([]*dataset.Dataset, 0, len(field))
	for _, img := range imagegen.Gallery() {
		out = append(out, field[img.Name])
	}
	return out
}

// benchWorkers names the serial baseline and the full-machine fan-out
// for the speedup benchmarks: every parallelized path is benchmarked
// at both so `benchstat serial parallel` is a one-liner.
var benchWorkers = []struct {
	name    string
	workers int
}{
	{"serial", 1},
	{"parallel", 0}, // one worker per CPU
}

// BenchmarkTable1 regenerates Table 1 (false accept/reject at equal
// grid-square sizes) and reports the 13x13 rates.
func BenchmarkTable1(b *testing.B) {
	dsets := benchFieldAll(b)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			var rows []analysis.Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = analysis.Table1(dsets, core.MostCentered, 42, w.workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[1].FalseRejectPct(), "FR13@%")
			b.ReportMetric(rows[1].FalseAcceptPct(), "FA13@%")
		})
	}
}

// BenchmarkTable2 regenerates Table 2 (false accepts at equal r) and
// reports the r=4 false-accept rate (paper: 32.1%).
func BenchmarkTable2(b *testing.B) {
	dsets := benchFieldAll(b)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			var rows []analysis.Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = analysis.Table2(dsets, core.MostCentered, 42, w.workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].FalseAcceptPct(), "FA_r4@%")
			b.ReportMetric(rows[2].FalseAcceptPct(), "FA_r9@%")
		})
	}
}

// BenchmarkTable3 regenerates the password-space table and reports the
// 640x480 / 13x13 cell (paper: 54.3 bits).
func BenchmarkTable3(b *testing.B) {
	var rows []space.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = space.Table3(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[7].Bits, "bits_640x480_13")
}

// BenchmarkFigure7 regenerates the equal-size dictionary attack
// (Cars) and reports the 13x13 crack rates for both schemes.
func BenchmarkFigure7(b *testing.B) {
	field, lab := benchData(b)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			var cSeries, rSeries []attack.SeriesPoint
			for i := 0; i < b.N; i++ {
				var err error
				cSeries, rSeries, err = attack.Figure7(field["cars"], lab["cars"], core.MostCentered, 42, w.workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cSeries[1].Cracked, "centered13@%")
			b.ReportMetric(rSeries[1].Cracked, "robust13@%")
		})
	}
}

// BenchmarkFigure8 regenerates the equal-r dictionary attack (Cars)
// and reports the r=6 crack rates (paper: 14.8% vs 45.1%).
func BenchmarkFigure8(b *testing.B) {
	field, lab := benchData(b)
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			var cSeries, rSeries []attack.SeriesPoint
			for i := 0; i < b.N; i++ {
				var err error
				cSeries, rSeries, err = attack.Figure8(field["cars"], lab["cars"], core.MostCentered, 42, w.workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cSeries[1].Cracked, "centered_r6@%")
			b.ReportMetric(rSeries[1].Cracked, "robust_r6@%")
		})
	}
}

// BenchmarkFigure1WorstCase regenerates the worst-case geometry scan
// behind Figure 1 (row-striped across workers; identical result at
// any count).
func BenchmarkFigure1WorstCase(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			var wc analysis.WorstCase
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				wc, err = analysis.FindWorstCase(36, core.MostCentered, 42, w.workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(wc.RightSlackPx, "far_slack_px")
		})
	}
}

// BenchmarkOnlineAttack runs the §5.1 online attack with a 10-attempt
// lockout against the Pool study (per-account fan-out over the
// precompiled replay set).
func BenchmarkOnlineAttack(b *testing.B) {
	field, lab := benchData(b)
	img := imagegen.Pool()
	scheme, err := core.NewRobust2D(36, core.MostCentered, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			var res attack.OnlineResult
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err = attack.Online(field["pool"], lab["pool"], img, scheme, 10, w.workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CompromisedPct(), "compromised@%")
		})
	}
}

// BenchmarkSuccess replays every field login under centered 13x13
// (chunked fan-out over the precompiled replay sets).
func BenchmarkSuccess(b *testing.B) {
	dsets := benchFieldAll(b)
	scheme, err := core.NewCentered(13)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			var res analysis.SuccessRate
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err = analysis.Success(dsets, scheme, w.workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.AcceptedPct(), "accepted@%")
		})
	}
}

// BenchmarkRunCohort measures the participant-level cohort generator
// (per-participant rng streams; byte-identical at any worker count).
func BenchmarkRunCohort(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			cfg := study.DefaultCohort(imagegen.Cars(), 50)
			cfg.Workers = w.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := study.RunCohort(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStudyGeneration measures the simulator (162 passwords, 7
// logins each). The serial and parallel runs produce byte-identical
// datasets; only the wall clock differs.
func BenchmarkStudyGeneration(b *testing.B) {
	for _, w := range benchWorkers {
		b.Run(w.name, func(b *testing.B) {
			cfg := study.FieldConfig(imagegen.Cars(), 1)
			cfg.Workers = w.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := study.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the core primitives ---

func BenchmarkCenteredEnroll(b *testing.B) {
	s, err := core.NewCentered(13)
	if err != nil {
		b.Fatal(err)
	}
	p := geom.Pt(123, 217)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Enroll(p)
	}
}

func BenchmarkRobustEnroll(b *testing.B) {
	s, err := core.NewRobust2D(36, core.MostCentered, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := geom.Pt(123, 217)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Enroll(p)
	}
}

func BenchmarkCenteredLocate(b *testing.B) {
	s, err := core.NewCentered(13)
	if err != nil {
		b.Fatal(err)
	}
	tok := s.Enroll(geom.Pt(123, 217))
	q := geom.Pt(125, 215)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Locate(q, tok.Clear)
	}
}

// BenchmarkVerify1000 measures a full production login verification
// with the paper's recommended 1000 hash iterations.
func BenchmarkVerify1000(b *testing.B) {
	scheme, err := core.NewCentered(13)
	if err != nil {
		b.Fatal(err)
	}
	cfg := passpoints.Config{
		Image: geom.Size{W: 451, H: 331}, Clicks: 5, Scheme: scheme, Iterations: 1000,
	}
	clicks := []geom.Point{
		geom.Pt(30, 40), geom.Pt(120, 300), geom.Pt(222, 51),
		geom.Pt(400, 200), geom.Pt(77, 160),
	}
	rec, err := passpoints.Enroll(cfg, "bench", clicks)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := passpoints.Verify(cfg, rec, clicks)
		if err != nil || !ok {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkDigest measures the raw iterated hash as attack and verify
// loops consume it: a reusable Hasher with a caller-provided output
// buffer (alloc-free steady state).
func BenchmarkDigest(b *testing.B) {
	params := passhash.Params{Iterations: 1000, Salt: []byte("0123456789abcdef")}
	scheme, err := core.NewCentered(13)
	if err != nil {
		b.Fatal(err)
	}
	tokens := make([]core.Token, 5)
	for i := range tokens {
		tokens[i] = scheme.Enroll(geom.Pt(40*i+17, 30*i+11))
	}
	hasher, err := passhash.NewHasher(params)
	if err != nil {
		b.Fatal(err)
	}
	var sum []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum = hasher.DigestInto(sum[:0], tokens)
	}
}

// BenchmarkDigestOneShot measures the unbatched Digest path (a fresh
// Hasher per call: the salt's two HMAC pad blocks recompressed and the
// buffers reallocated) for comparison with BenchmarkDigest.
func BenchmarkDigestOneShot(b *testing.B) {
	params := passhash.Params{Iterations: 1000, Salt: []byte("0123456789abcdef")}
	scheme, err := core.NewCentered(13)
	if err != nil {
		b.Fatal(err)
	}
	tokens := make([]core.Token, 5)
	for i := range tokens {
		tokens[i] = scheme.Enroll(geom.Pt(40*i+17, 30*i+11))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := passhash.Digest(params, tokens); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrackPassword measures the analytic dictionary attack per
// password (matching against 150 points) the way the sweeps run it: a
// long-lived Cracker amortizing the pool index and matching scratch.
func BenchmarkCrackPassword(b *testing.B) {
	field, lab := benchData(b)
	dict, err := attack.BuildDictionary(lab["cars"], 5)
	if err != nil {
		b.Fatal(err)
	}
	scheme, err := core.NewRobust2D(36, core.MostCentered, 42)
	if err != nil {
		b.Fatal(err)
	}
	pw := &field["cars"].Passwords[0]
	pts := pw.Points()
	cracker := attack.NewCracker(dict.Points)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = cracker.Witness(pts, scheme)
	}
}

// BenchmarkCrackPasswordOneShot is the pre-index baseline shape: a
// fresh scan of the whole pool per password.
func BenchmarkCrackPasswordOneShot(b *testing.B) {
	field, lab := benchData(b)
	dict, err := attack.BuildDictionary(lab["cars"], 5)
	if err != nil {
		b.Fatal(err)
	}
	scheme, err := core.NewRobust2D(36, core.MostCentered, 42)
	if err != nil {
		b.Fatal(err)
	}
	pw := &field["cars"].Passwords[0]
	pts := pw.Points()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = attack.Witness(pts, dict.Points, scheme)
	}
}

// --- Ablation benches: design choices from DESIGN.md ---

// BenchmarkAblationPolicy compares Robust grid-selection policies by
// false-reject rate at 13x13 (the paper's implementation decision,
// §4: "we attempted to implement an optimal Robust Discretization").
func BenchmarkAblationPolicy(b *testing.B) {
	dsets := benchFieldAll(b)
	for _, policy := range []core.RobustPolicy{core.MostCentered, core.FirstSafe, core.RandomSafe} {
		b.Run(policy.String(), func(b *testing.B) {
			var row analysis.Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = analysis.Compare(dsets, 13, 13, policy, 42, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.FalseRejectPct(), "FR@%")
			b.ReportMetric(row.FalseAcceptPct(), "FA@%")
		})
	}
}

// BenchmarkAblationIterations shows the login-latency cost of the
// iterated-hashing hardening (§3.2): each 10x in iterations adds ~3.3
// bits of offline attack cost.
func BenchmarkAblationIterations(b *testing.B) {
	scheme, err := core.NewCentered(13)
	if err != nil {
		b.Fatal(err)
	}
	clicks := []geom.Point{
		geom.Pt(30, 40), geom.Pt(120, 300), geom.Pt(222, 51),
		geom.Pt(400, 200), geom.Pt(77, 160),
	}
	for _, iter := range []int{1, 100, 1000, 10000} {
		cfg := passpoints.Config{
			Image: geom.Size{W: 451, H: 331}, Clicks: 5, Scheme: scheme, Iterations: iter,
		}
		rec, err := passpoints.Enroll(cfg, "bench", clicks)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(itoa(iter), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, err := passpoints.Verify(cfg, rec, clicks); err != nil || !ok {
					b.Fatal("verify failed")
				}
			}
			b.ReportMetric(passhash.AddedBits(iter), "added_bits")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationErrorModel sweeps the calibrated error model's
// components to show which drives which table (documenting the
// calibration in DESIGN.md).
func BenchmarkAblationErrorModel(b *testing.B) {
	models := map[string]study.ErrorModel{
		"calibrated":  study.DefaultErrorModel(),
		"motor-only":  {MotorSigma: 1.9, MaxError: 20},
		"heavy-slips": {MotorSigma: 0.7, SlipProb: 0.35, SlipSigma: 2.7, Slip2Prob: 0.15, Slip2Sigma: 6, MaxError: 20},
	}
	for name, model := range models {
		b.Run(name, func(b *testing.B) {
			var row analysis.Row
			for i := 0; i < b.N; i++ {
				cfg := study.FieldConfig(imagegen.Cars(), 42)
				cfg.Error = model
				d, err := study.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				row, err = analysis.Compare([]*dataset.Dataset{d}, 13, 13, core.MostCentered, 42, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.FalseRejectPct(), "FR13@%")
		})
	}
}

// --- Extension benches: systems beyond the paper's own tables ---

// BenchmarkAutomatedDictionary measures the Dirik-style automated
// attack (saliency top-150 candidates, no harvested passwords) against
// the Pool field study on Robust 36x36.
func BenchmarkAutomatedDictionary(b *testing.B) {
	field, _ := benchData(b)
	img := imagegen.Pool()
	dm, err := hotspot.FromSaliency(img, 4)
	if err != nil {
		b.Fatal(err)
	}
	dict, err := attack.NewPointDictionary(dm.TopK(150, 8), 5)
	if err != nil {
		b.Fatal(err)
	}
	scheme, err := core.NewRobust2D(36, core.MostCentered, 42)
	if err != nil {
		b.Fatal(err)
	}
	var res attack.Result
	for i := 0; i < b.N; i++ {
		res, err = attack.OfflineKnownGrids(field["pool"], dict, scheme, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CrackedPct(), "cracked@%")
}

// BenchmarkCCPVerify measures a full Cued Click-Points login with 1000
// hash iterations.
func BenchmarkCCPVerify(b *testing.B) {
	scheme, err := core.NewCentered(13)
	if err != nil {
		b.Fatal(err)
	}
	sys := &ccp.System{
		Images:     []*imagegen.Image{imagegen.Cars(), imagegen.Pool()},
		Scheme:     scheme,
		Clicks:     5,
		Iterations: 1000,
	}
	var clicked []geom.Point
	rec, err := sys.Enroll("bench", ccp.RecordingClicker(ccp.HotspotClicker(rng.New(1)), &clicked))
	if err != nil {
		b.Fatal(err)
	}
	replay := ccp.ReplayClicker(clicked, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := sys.Verify(rec, replay)
		if err != nil || !ok {
			b.Fatal("ccp verify failed")
		}
	}
}

// BenchmarkAblationCreationMode quantifies Persuasive CCP's viewport:
// how much of the created-click mass an automated top-30 dictionary
// covers under each creation mode (lower = more attack-resistant).
func BenchmarkAblationCreationMode(b *testing.B) {
	img := imagegen.Pool()
	scheme, err := core.NewCentered(19)
	if err != nil {
		b.Fatal(err)
	}
	dm, err := hotspot.FromSaliency(img, 4)
	if err != nil {
		b.Fatal(err)
	}
	candidates := dm.TopK(30, 10)
	modes := map[string]func(*rng.Source) ccp.Clicker{
		"hotspot":  func(r *rng.Source) ccp.Clicker { return ccp.HotspotClicker(r) },
		"viewport": func(r *rng.Source) ccp.Clicker { return ccp.ViewportClicker(r, 75) },
	}
	for name, mk := range modes {
		b.Run(name, func(b *testing.B) {
			var covered, total int
			for i := 0; i < b.N; i++ {
				click := mk(rng.New(uint64(i) + 5))
				covered, total = 0, 0
				for j := 0; j < 1000; j++ {
					p := click(img, 0)
					total++
					for _, c := range candidates {
						if core.Accepts(scheme, scheme.Enroll(c), p) {
							covered++
							break
						}
					}
				}
			}
			b.ReportMetric(100*float64(covered)/float64(total), "dict_coverage@%")
		})
	}
}

// BenchmarkGridBlindAttack measures the empirical per-guess cost of an
// offline attack without grid identifiers (§5.1): the Centered/Robust
// ratio is the paper's work-factor claim made concrete.
func BenchmarkGridBlindAttack(b *testing.B) {
	orig := geom.Pt(100, 150)
	wrong := geom.Pt(300, 20)
	params := passhash.Params{Iterations: 100, Salt: []byte("0123456789abcdef")}
	schemes := map[string]core.Scheme{}
	if c, err := core.NewCentered(13); err == nil {
		schemes["centered13"] = c
	}
	if r, err := core.NewRobust2D(36, core.MostCentered, 1); err == nil {
		schemes["robust36"] = r
	}
	for name, scheme := range schemes {
		tok := scheme.Enroll(orig)
		digest, err := passhash.Digest(params, []core.Token{tok})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var res attack.GridBlindResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = attack.GridBlindTest(scheme, params, digest, wrong)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Hashes), "hashes/guess")
		})
	}
}
