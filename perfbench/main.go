// Command perfbench is the repository benchmark. It runs one workload
// against the real packages, checks every output, and prints the
// workload's metrics; the last line of standard output is one JSON
// object:
//
//	go run . --workload login --seed 1 --seconds 30 --trace 0
//
// Workloads: login, validate and write drive an in-process server over
// loopback, open loop for latency and closed loop for capacity; repro
// runs the paper reproduction at 20x field-study scale. BENCHMARK.json
// lists all but validate, which is run by hand. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones from a separate
// traced run. --workload all runs every workload untraced and traced
// and prints every table. The exit code is non-zero when a correctness
// check fails. README.md documents the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// endToEnd is what a user of the system sees; every workload reports
// every one of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"max_rps", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer is what a traced run reports. A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"client.p50_us", "us", "lower"},
	{"client.p90_us", "us", "lower"},
	{"client.p99_us", "us", "lower"},
	{"loadgen.wait_us", "us", "lower"},
	{"authproto.wire_us", "us", "lower"},
	{"authsvc.queue_us", "us", "lower"},
	{"authsvc.self_us", "us", "lower"},
	{"session.self_us", "us", "lower"},
	{"vault.self_us", "us", "lower"},
	{"unattributed_us", "us", "lower"},
	{"trace.overhead_us", "us", "lower"},
	{"authproto.rtt_us", "us", "lower"},
	{"authproto.rtt_n", "count", "higher"},
	{"authproto.wire_tcp_us", "us", "lower"},
	{"authproto.wire_http_us", "us", "lower"},
	{"authsvc.handle_us", "us", "lower"},
	{"authsvc.sheds", "count", "lower"},
	{"session.mint_us", "us", "lower"},
	{"session.mint_n", "count", "lower"},
	{"session.validate_us", "us", "lower"},
	{"session.validate_n", "count", "higher"},
	{"session.revoke_us", "us", "lower"},
	{"vault.get_us", "us", "lower"},
	{"vault.get_n", "count", "lower"},
	{"vault.put_us", "us", "lower"},
	{"vault.replace_us", "us", "lower"},
	{"vault.setkv_us", "us", "lower"},
	{"vault.setkv_n", "count", "lower"},
	{"repl.lag_records", "count", "lower"},
	{"study.gen_s", "s", "lower"},
	{"study.cohort_s", "s", "lower"},
	{"study.participants_per_s", "1/s", "higher"},
	{"analysis.tables_s", "s", "lower"},
	{"analysis.logins_per_s", "1/s", "higher"},
	{"attack.figures_s", "s", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"loadgen.late_ms", "ms", "lower"},
	{"loadgen.backlog", "count", "lower"},
	{"host.steal_frac", "ratio", "lower"},
}

//go:embed workloads.json
var workloadsJSON []byte

// serveConfig sizes one serving workload; workloads.json holds the
// values with the reason for each.
type serveConfig struct {
	Accounts    int     `json:"accounts"`
	Setups      int     `json:"setups"`
	NominalRPS  float64 `json:"nominal_rps"`
	ClosedBlock int     `json:"closed_block"`
}

type reproConfig struct {
	Scale              int               `json:"scale"`
	CohortParticipants int               `json:"cohort_participants"`
	Setups             int               `json:"setups"`
	MinReps            int               `json:"min_reps"`
	RefSeed            uint64            `json:"ref_seed"`
	RefCohort          int               `json:"ref_cohort_participants"`
	RefDigest          string            `json:"ref_digest"`
	Digests            map[string]string `json:"digests"`
}

type config struct {
	Login    serveConfig `json:"login"`
	Validate serveConfig `json:"validate"`
	Write    serveConfig `json:"write"`
	Repro    reproConfig `json:"repro"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string // where the write workload puts its durable stores
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one line of a traced run's attribution table.
type row struct {
	name string
	us   float64
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	problems          []string
	metrics, layers   map[string]metric
	rows              []row
	rowTotal          float64 // the client-observed median the rows sum to, µs
	notes             []string
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, layers: map[string]metric{}}
}

func (r *result) put(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
}

func (r *result) layer(name string, v float64, unit string) {
	r.layers[name] = metric{v, unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check fails unless ok, and reports ok.
func (r *result) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// report fills metrics for defs, 0 for any the workload did not
// measure, and rejects non-finite values.
func report(have map[string]metric, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := have[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m = metric{0, d.unit}
		}
		m.Unit = d.unit
		out[d.name] = m
	}
	return out
}

func runWorkload(cfg *config, opt options) (*result, error) {
	switch opt.workload {
	case "login":
		return runServe(newLoginLoad(cfg.Login, opt.seed), cfg.Login, opt)
	case "validate":
		return runServe(newValidateLoad(cfg.Validate, opt.seed), cfg.Validate, opt)
	case "write":
		return runServe(newWriteLoad(cfg.Write, opt.seed, opt.dir), cfg.Write, opt)
	case "repro":
		return runRepro(cfg, opt)
	}
	return nil, fmt.Errorf("unknown workload %q (want login, validate, write, repro or all)", opt.workload)
}

func printResult(opt options, res *result) {
	mode := "untraced"
	if opt.trace {
		mode = "traced"
	}
	fmt.Printf("# %s seed=%d seconds=%g %s\n", opt.workload, opt.seed, opt.seconds.Seconds(), mode)
	fmt.Printf("# machine: %s\n", stamp(opt.dir))
	for _, n := range res.notes {
		fmt.Printf("# %s\n", n)
	}
	defs, have := endToEnd, res.metrics
	if opt.trace {
		defs, have = perLayer, res.layers
	}
	m := report(have, defs)
	for _, d := range defs {
		format := "%-26s %14.4f %s\n"
		if v := math.Abs(m[d.name].Value); v > 0 && v < 0.01 {
			format = "%-26s %14.4e %s\n" // repro's setup_s is well under a microsecond
		}
		fmt.Printf(format, d.name, m[d.name].Value, d.unit)
	}
	fmt.Printf("%-26s %14d\n%-26s %14d\n", "ops", res.attempted, "failed", res.failed)
	if res.attempted > 0 {
		fmt.Printf("%-26s %14.6f\n", "failed_frac", float64(res.failed)/float64(res.attempted))
	}
	if opt.trace && len(res.rows) > 0 {
		fmt.Printf("\n%-34s %12s %7s\n", "layer (self time at the median)", "us", "share")
		sum := 0.0
		for _, r := range res.rows {
			sum += r.us
			fmt.Printf("%-34s %12.1f %6.1f%%\n", r.name, r.us, 100*r.us/res.rowTotal)
		}
		un := res.rowTotal - sum
		fmt.Printf("%-34s %12.1f %6.1f%%\n", "unattributed", un, 100*un/res.rowTotal)
		fmt.Printf("%-34s %12.1f\n", "client-observed median", res.rowTotal)
	}
	for _, p := range res.problems {
		fmt.Printf("# FAILED: %s\n", p)
	}
}

type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "login, validate, write, repro, or all")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		dir      = flag.String("dir", ".bench_build", "directory for the write workload's durable stores")
		digests  = flag.Int("digests", 0, "print the repro digests of the reference seed and of seeds 1..N as workloads.json records them, and exit")
	)
	flag.Parse()
	cfg, err := loadConfig()
	if err != nil {
		fatal(err)
	}
	opt := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, dir: *dir}
	if *digests > 0 {
		if err := printDigests(cfg.Repro, *digests); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	if opt.workload == "all" {
		os.Exit(runAll(cfg, opt))
	}
	res, err := runWorkload(cfg, opt)
	if err != nil {
		fatal(err)
	}
	printResult(opt, res)
	defs, have := endToEnd, res.metrics
	if opt.trace {
		defs, have = perLayer, res.layers
	}
	out, _ := json.Marshal(line{res.correct(), res.attempted, res.failed, report(have, defs)})
	fmt.Println(string(out))
	if !res.correct() {
		os.Exit(1)
	}
}

// runAll runs every workload untraced and then traced, printing each
// table, and ends with one JSON line whose metrics are keyed
// workload.metric. It returns the exit code.
func runAll(cfg *config, opt options) int {
	all := line{Correct: true, Metrics: map[string]metric{}}
	for _, w := range []string{"login", "validate", "write", "repro"} {
		for _, tr := range []bool{false, true} {
			o := opt
			o.workload, o.trace = w, tr
			res, err := runWorkload(cfg, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			printResult(o, res)
			fmt.Println()
			all.Correct = all.Correct && res.correct()
			all.Attempted += res.attempted
			all.Failed += res.failed
			defs, have := endToEnd, res.metrics
			if tr {
				defs, have = perLayer, res.layers
			}
			for k, v := range report(have, defs) {
				all.Metrics[w+"."+k] = v
			}
		}
	}
	out, _ := json.Marshal(all)
	fmt.Println(string(out))
	if !all.Correct {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// median of xs; xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
