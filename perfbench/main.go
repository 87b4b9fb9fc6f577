// Command perfbench is the repository benchmark. It measures three
// workloads from outside the program — the Figure 12 grid, the scheme
// registry grid in fast mode, and a durable /v2 service under a
// closed-loop hit/miss mix — and checks every result it times.
//
//	perfbench --workload fig12|schemes-fast|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reruns the workload under spans and a CPU profile and reports the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is non-zero when any result diverges. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultSeed is the seed expected.json is pinned at (core.Options and
// the service both treat seed 0 as 1).
const defaultSeed = 1

type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run; every workload reports
// every one (README.md gives each workload's definition).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"grid_s", "s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"max_rss_mb", "MB"},
	{"fig12_err", "ratio"},
}

// perLayer are the metrics of a --trace 1 run. A layer a workload does
// not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"whisper.gen_s", "s"},
		{"whisper.ops", "count"},
		{"cpu.preload_s", "s"},
		{"cpu.init_lines", "count"},
		{"sim.run_s", "s"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"mcore.run_s", "s"},
		{"masu.related_run_s", "s"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"prof." + l, "share"})
	}
	for _, c := range modelCounters {
		defs = append(defs, metricDef{c, "count"})
	}
	return append(defs,
		metricDef{"cpu.fence_stall_share", "share"},
		metricDef{"service.submit_p50_s", "s"},
		metricDef{"service.result_p50_s", "s"},
		metricDef{"service.cell_gap_p50_s", "s"},
		metricDef{"service.first_cell_p50_s", "s"},
		metricDef{"service.hit_p50_s", "s"},
		metricDef{"service.hit_p90_s", "s"},
		metricDef{"service.miss_p50_s", "s"},
		metricDef{"service.miss_p90_s", "s"},
		metricDef{"service.job_mean_s", "s"},
		metricDef{"service.cache_hit_ratio", "share"},
		metricDef{"service.sims_executed", "count"},
		metricDef{"store.wal_bytes_per_job", "B"},
		metricDef{"trace.span_coverage", "share"},
		metricDef{"trace.overhead", "ratio"},
	)
}()

// expectedSection pins one workload's cells at the default seed.
type expectedSection struct {
	Transactions int          `json:"transactions"`
	Seed         int64        `json:"seed"`
	Cells        []cellFields `json:"cells"`
}

//go:embed expected.json
var expectedJSON []byte

var expected = func() map[string]expectedSection {
	m := make(map[string]expectedSection)
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("expected.json: %v", err))
	}
	return m
}()

type args struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: serve-mix keeps its store under it
	outDir   string // <root>/.bench_build/out
}

// hardCap bounds a run that cannot collect enough samples in time.
func hardCap(a args) float64 { return 3*a.seconds + 30 }

// outcome collects a run's operations, divergences and metrics.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	notes             []string
}

func (o *outcome) problem(format string, a ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
}

func (o *outcome) note(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setQ sets a percentile metric and records its evidence; a percentile
// with fewer than minBeyond samples beyond it is a failed run.
func (o *outcome) setQ(name string, q quantile) {
	o.set(name, q.Value)
	o.note("%s %s", name, q)
	if !q.ok() {
		o.problem("%s: only %d samples beyond the percentile (need %d)", name, q.Beyond, minBeyond)
	}
}

// setLayerZeros reports 0 for every per-layer metric; a workload then
// overwrites the layers it exercises.
func setLayerZeros(o *outcome) {
	for _, m := range perLayer {
		o.set(m.name, 0)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(argv []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "fig12, schemes-fast or serve-mix")
	seed := fs.Int64("seed", defaultSeed, "input seed: workload traces and the serve-mix schedule derive from it")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	writeExpected := fs.Bool("write-expected", false, "regenerate perfbench/expected.json at the default seed and exit")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	a := args{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, root: *root}
	if a.seed == 0 {
		a.seed = defaultSeed
	}
	a.outDir = filepath.Join(a.root, ".bench_build", "out")
	if err := os.MkdirAll(a.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *writeExpected {
		if err := regenerateExpected(filepath.Join(a.root, "perfbench", "expected.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	o := &outcome{values: make(map[string]float64)}
	var err error
	switch a.workload {
	case "fig12", "schemes-fast":
		err = runSim(o, a.workload, a)
	case "serve-mix":
		err = runServe(o, a)
	default:
		err = fmt.Errorf("unknown workload %q (want fig12, schemes-fast or serve-mix)", a.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return report(o, a)
}

// report prints every metric with its unit, the evidence notes and the
// operation counts, then the JSON result line.
func report(o *outcome, a args) int {
	defs := endToEnd
	if a.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, m := range defs {
		v, ok := o.values[m.name]
		if !ok {
			o.problem("metric %s was not measured", m.name)
			continue
		}
		metrics[m.name] = metric{v, m.unit}
		fmt.Printf("%-28s %s %s\n", m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
	}
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "DIVERGENCE:", p)
	}
	// A refused job is a failed operation but not a wrong output; every
	// wrong or missing result is also a problem.
	correct := len(o.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(o.attempted, 1), o.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB; pid is
// a number or "self".
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// regenerateExpected recomputes every pinned cell at the default seed.
func regenerateExpected(path string) error {
	out := make(map[string]expectedSection)
	for _, name := range []string{"fig12", "schemes-fast"} {
		g, err := newSimGrid(name, defaultSeed)
		if err != nil {
			return err
		}
		fields, err := gridFields(g.opts, g.cells)
		if err != nil {
			return err
		}
		out[name] = expectedSection{Transactions: g.opts.Transactions, Seed: defaultSeed, Cells: fields}
	}
	fields, err := requestFields(warmupRequest(defaultSeed))
	if err != nil {
		return err
	}
	out["serve-mix"] = expectedSection{Transactions: warmTxns, Seed: defaultSeed, Cells: fields}

	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
