package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"time"

	"clickpass/internal/analysis"
	"clickpass/internal/attack"
	"clickpass/internal/core"
	"clickpass/internal/dataset"
	"clickpass/internal/imagegen"
	"clickpass/internal/study"
)

// reproStats times the steps of one reproduction.
type reproStats struct {
	wall, gen, tables, figures, cohort time.Duration
	logins, participants               int
	digest                             string
}

// reproduce runs the paper reproduction at scale× the field study on
// images: study.Run for the field and lab studies, Tables 1 and 2,
// Figures 7 and 8 on every image, and a streamed cohort of
// cohortParticipants spread evenly across the images. The digest
// covers every table row, every figure point and every streamed
// click, so two runs agree only if they computed the same thing.
func reproduce(images []*imagegen.Image, seed uint64, scale, cohortParticipants, workers int) (reproStats, error) {
	var st reproStats
	h := sha256.New()
	t0 := time.Now()

	field := make([]*dataset.Dataset, len(images))
	lab := make([]*dataset.Dataset, len(images))
	for i, img := range images {
		fc := study.FieldConfig(img, seed+uint64(i))
		fc.Passwords *= scale
		fc.Workers = workers
		f, err := study.Run(fc)
		if err != nil {
			return st, fmt.Errorf("field study on %s: %w", img.Name, err)
		}
		lc := study.LabConfig(img, seed+100+uint64(i))
		lc.Workers = workers
		l, err := study.Run(lc)
		if err != nil {
			return st, fmt.Errorf("lab study on %s: %w", img.Name, err)
		}
		field[i], lab[i] = f, l
		st.logins += len(f.Logins)
	}
	t1 := time.Now()

	t1rows, err := analysis.Table1(field, core.MostCentered, seed, workers)
	if err != nil {
		return st, fmt.Errorf("table 1: %w", err)
	}
	t2rows, err := analysis.Table2(field, core.MostCentered, seed, workers)
	if err != nil {
		return st, fmt.Errorf("table 2: %w", err)
	}
	for _, r := range append(t1rows, t2rows...) {
		fmt.Fprintf(h, "row %d %d %d %d %d %d %d %d\n", r.RobustSide, r.CenteredSide, r.Logins,
			r.FalseAccepts, r.FalseRejects, r.ClickFalseAccepts, r.ClickFalseRejects, r.Clicks)
	}
	t2 := time.Now()

	for i, img := range images {
		for _, f := range []struct {
			n   int
			run func(field, lab *dataset.Dataset, policy core.RobustPolicy, seed uint64, workers int) ([]attack.SeriesPoint, []attack.SeriesPoint, error)
		}{{7, attack.Figure7}, {8, attack.Figure8}} {
			fig := f.n
			c, r, err := f.run(field[i], lab[i], core.MostCentered, seed, workers)
			if err != nil {
				return st, fmt.Errorf("figure %d on %s: %w", fig, img.Name, err)
			}
			for _, p := range append(c, r...) {
				fmt.Fprintf(h, "fig%d %s %s %d %d/%d %.6f\n", fig, img.Name, p.Result.Scheme, p.X,
					p.Result.Cracked, p.Result.Passwords, p.Result.DictionaryBits)
			}
		}
	}
	t3 := time.Now()

	for i, img := range images {
		cc := study.DefaultCohort(img, seed+50+uint64(i))
		cc.Participants = cohortParticipants / len(images)
		cc.Workers = workers
		err := study.RunCohortStream(cc, func(p study.Participant) error {
			st.participants++
			hashParticipant(h, p)
			return nil
		})
		if err != nil {
			return st, fmt.Errorf("cohort on %s: %w", img.Name, err)
		}
	}
	t4 := time.Now()

	st.gen, st.tables, st.figures, st.cohort = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	st.wall = t4.Sub(t0)
	st.digest = hex.EncodeToString(h.Sum(nil))
	return st, nil
}

// hashParticipant folds every password and login click of p into h.
func hashParticipant(h hash.Hash, p study.Participant) {
	var buf []byte
	put := func(v int) { buf = binary.AppendVarint(buf, int64(v)) }
	put(p.Index)
	for _, pw := range p.Passwords {
		put(pw.ID)
		for _, c := range pw.Clicks {
			put(c.X)
			put(c.Y)
		}
	}
	for _, l := range p.Logins {
		put(l.PasswordID)
		put(l.Attempt)
		for _, c := range l.Clicks {
			put(c.X)
			put(c.Y)
		}
	}
	h.Write(buf)
}

// galleryBuilds is how many gallery builds one timed setup makes: a
// build allocates the two study images in under a microsecond, too
// short to time alone.
const galleryBuilds = 10000

// runRepro is the repro workload. Setup is image gallery generation:
// it builds the gallery in batches, and setup_s is the median time of
// one build. The reference seed is then reproduced at paper scale,
// untimed, and checked against its recorded digest. The measured
// phase reproduces the run's seed at full scale back to back. Every
// reproduction of one seed must give the same digest, and the
// recorded one where the seed has a record; the first that does not
// ends the run.
func runRepro(cfg *config, opt options) (*result, error) {
	w := cfg.Repro
	res := newResult()
	workers := runtime.NumCPU()
	var images []*imagegen.Image
	setups := make([]float64, w.Setups)
	for i := range setups {
		t := time.Now()
		for range galleryBuilds {
			images = imagegen.Gallery()
		}
		setups[i] = time.Since(t).Seconds() / galleryBuilds
	}
	setup := median(setups)
	res.note("setup_s: median of %d batches of %d gallery builds", len(setups), galleryBuilds)

	ref, err := reproduce(images, w.RefSeed, 1, w.RefCohort, workers)
	if err != nil {
		return nil, err
	}
	res.attempted++
	if !res.check(ref.digest == w.RefDigest, "reference seed %d at paper scale: digest %s, recorded %s",
		w.RefSeed, ref.digest, w.RefDigest) {
		return res, nil
	}

	want := w.Digests[fmt.Sprint(opt.seed)]
	var runs []reproStats
	probe := startProbe()
	start := time.Now()
	for len(runs) < w.MinReps || time.Since(start) < opt.seconds {
		st, err := reproduce(images, opt.seed, w.Scale, w.CohortParticipants, workers)
		res.attempted++
		if err != nil {
			res.fail("reproduction %d: %v", len(runs), err)
			break
		}
		if want == "" {
			want = st.digest // an unrecorded seed: every reproduction must agree with the first
		}
		if !res.check(st.digest == want, "seed %d reproduction %d: digest %s, want %s", opt.seed, len(runs), st.digest, want) {
			break
		}
		runs = append(runs, st)
	}
	elapsed := time.Since(start)
	ps := probe.stop()
	if !res.correct() {
		return res, nil
	}

	walls := collect(runs, func(s reproStats) float64 { return float64(s.wall) / 1e6 })
	res.put("setup_s", setup, "s")
	res.put("p50_ms", median(walls), "ms")
	res.note("%d reproductions: wall %s ms, p90 %.0f ms", len(walls), fmtList(walls, 0), quantile(walls, tailQ))
	res.put("max_rps", float64(len(runs))/elapsed.Seconds(), "1/s")
	res.put("cpu_us_per_op", ps.cpu.Seconds()*1e6/float64(len(runs)), "us")
	res.put("peak_heap_mb", ps.peakHeapMB, "MB")

	sec := func(f func(reproStats) time.Duration) float64 {
		return median(collect(runs, func(s reproStats) float64 { return f(s).Seconds() }))
	}
	gen := sec(func(s reproStats) time.Duration { return s.gen })
	tables := sec(func(s reproStats) time.Duration { return s.tables })
	figures := sec(func(s reproStats) time.Duration { return s.figures })
	cohort := sec(func(s reproStats) time.Duration { return s.cohort })
	wall := median(walls) / 1e3
	res.layer("study.gen_s", gen, "s")
	res.layer("analysis.tables_s", tables, "s")
	res.layer("attack.figures_s", figures, "s")
	res.layer("study.cohort_s", cohort, "s")
	res.layer("analysis.logins_per_s", float64(runs[0].logins)/tables, "1/s")
	res.layer("study.participants_per_s", float64(runs[0].participants)/cohort, "1/s")
	res.layer("client.p50_us", wall*1e6, "us")
	res.layer("unattributed_us", (wall-gen-tables-figures-cohort)*1e6, "us")
	res.layer("proc.gc_pause_ms", ps.gcPause.Seconds()*1e3, "ms")
	res.layer("host.steal_frac", ps.steal, "ratio")
	res.rows = []row{
		{"study (field+lab generation)", gen * 1e6},
		{"analysis (tables 1, 2)", tables * 1e6},
		{"attack (figures 7, 8)", figures * 1e6},
		{"study (cohort stream)", cohort * 1e6},
	}
	res.rowTotal = wall * 1e6
	return res, nil
}

func collect[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// printDigests prints the digests workloads.json records: the reference
// seed at paper scale, and seeds 1..n at the workload's scale.
func printDigests(w reproConfig, n int) error {
	images := imagegen.Gallery()
	ref, err := reproduce(images, w.RefSeed, 1, w.RefCohort, runtime.NumCPU())
	if err != nil {
		return err
	}
	out := map[string]any{"ref_digest": ref.digest}
	ds := map[string]string{}
	for seed := 1; seed <= n; seed++ {
		st, err := reproduce(images, uint64(seed), w.Scale, w.CohortParticipants, runtime.NumCPU())
		if err != nil {
			return err
		}
		ds[fmt.Sprint(seed)] = st.digest
	}
	out["digests"] = ds
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
