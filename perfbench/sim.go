package main

// The two simulator workloads: fig12 and schemes-fast. Both run a
// fixed grid of cells serially through core.Runner.RunGrid; the traced
// run drives the same cells through cpu.NewSystem / System.Start /
// Eng.Run + Ctrl.Quiesce / System.Collect (and mcore.System for the
// 2-core cells) so each stage gets its own span.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"time"

	"dolos/internal/controller"
	"dolos/internal/core"
	"dolos/internal/cpu"
	"dolos/internal/masu"
	"dolos/internal/mcore"
	"dolos/internal/scheme"
	"dolos/internal/sim"
	"dolos/internal/trace"
	"dolos/internal/whisper"
)

const (
	simTransactions = 1000
	simTxSize       = 1024
	// setupRepeats is how many times a run sets up from scratch; setup_s
	// is the median.
	setupRepeats = 5
	// minStageCoverage is the share of a traced sim pass that the stage
	// spans must cover; less means time goes to calls no span names.
	minStageCoverage = 0.95
	// maxUnattributed bounds the profile share no layer claims.
	maxUnattributed = 0.05
)

// stageSpans are the spans of one cell's stages in the traced pass.
var stageSpans = []string{
	"cpu.new", "mcore.new", "cpu.preload", "sim.run", "cpu.collect", "mcore.collect",
}

// simGrid is one simulator workload: its runner options and cells.
type simGrid struct {
	name  string
	opts  core.Options
	cells []core.Cell
	warm  int // the untimed warm-up cell run during setup

	// coreTraces holds the per-core traces of the 2-core cells for the
	// traced run, keyed by workload and core (core 0 is Runner.Trace).
	coreTraces map[string]*trace.Trace
}

// fig12Schemes are Figure 12's columns, baseline first.
var fig12Schemes = []controller.Scheme{
	controller.PreWPQSecure, controller.DolosFull, controller.DolosPartial, controller.DolosPost,
}

// fig12Cells enumerates the cells of Runner.Fig12: every workload under
// the baseline and the three Dolos designs, eager BMT, 1024 B
// transactions, 16-entry WPQ.
func fig12Cells(workloads []string) []core.Cell {
	var cells []core.Cell
	for _, w := range workloads {
		for _, s := range fig12Schemes {
			cells = append(cells, core.Cell{Workload: w, Spec: core.Spec{
				Scheme: s, Tree: masu.BMTEager, TxSize: simTxSize, HardwareWPQ: 16}})
		}
	}
	return cells
}

// newSimGrid builds a sim workload at a seed.
func newSimGrid(name string, seed int64) (*simGrid, error) {
	g := &simGrid{name: name, opts: core.Options{
		Transactions: simTransactions, Seed: seed, Parallelism: 1,
	}}
	switch name {
	case "fig12":
		g.cells = fig12Cells(whisper.Names())
	case "schemes-fast":
		// dolos-bench -exp schemes -fast: SchemeComparison (every
		// registry scheme over every workload) then SchemeContention
		// (every registry scheme on Hashmap at 2 cores).
		g.opts.FastMode = true
		for _, e := range scheme.All() {
			for _, w := range whisper.Names() {
				g.cells = append(g.cells, core.Cell{Workload: w, Spec: core.Spec{Scheme: e.ID, Tree: masu.BMTEager}})
			}
		}
		g.warm = len(g.cells)
		for _, e := range scheme.All() {
			g.cells = append(g.cells, core.Cell{Workload: "Hashmap", Spec: core.Spec{
				Scheme: e.ID, Tree: masu.BMTEager, Cores: 2}})
		}
	default:
		return nil, fmt.Errorf("unknown sim workload %q", name)
	}
	return g, nil
}

// cellName identifies a cell in reports and in expected.json.
func cellName(c core.Cell) string {
	return fmt.Sprintf("%s/%s/%dc", c.Workload, c.Spec.Scheme, max(c.Spec.Cores, 1))
}

// traceSize is the transaction size a cell's trace is generated at.
func traceSize(c core.Cell) int {
	if c.Spec.TxSize == 0 {
		return simTxSize
	}
	return c.Spec.TxSize
}

// setup generates every trace the grid replays, then runs the warm-up
// cell (which also builds the runner's per-core traces). With a tracer
// it spans each generation, and also generates the per-core traces the
// traced cells replay.
func (g *simGrid) setup(tr *tracer, acc *layerAcc) (*core.Runner, time.Duration, error) {
	start := time.Now()
	root := tr.begin("setup", g.name, -1, 0)
	defer tr.end(root)
	r := core.NewRunner(g.opts)
	seen := make(map[string]bool)
	for _, c := range g.cells {
		key := fmt.Sprintf("%s/%d", c.Workload, traceSize(c))
		if seen[key] {
			continue
		}
		seen[key] = true
		s := tr.begin("whisper.gen", key, root, 0)
		t, err := r.Trace(c.Workload, traceSize(c))
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
		acc.addTrace(t)
	}
	if tr != nil {
		g.coreTraces = make(map[string]*trace.Trace)
		for _, c := range g.cells {
			for i := 1; i < c.Spec.Cores; i++ {
				key := fmt.Sprintf("%s/%d/core%d", c.Workload, traceSize(c), i)
				if g.coreTraces[key] != nil {
					continue
				}
				w, err := whisper.ByName(c.Workload)
				if err != nil {
					return nil, 0, err
				}
				s := tr.begin("whisper.gen", key, root, 0)
				t := w.Generate(whisper.Params{
					Transactions: g.opts.Transactions, TxSize: traceSize(c),
					Seed: mcore.CoreSeed(g.opts.Seed, i), HeapBase: mcore.CoreHeapBase(i),
				})
				tr.end(s)
				acc.addTrace(t)
				g.coreTraces[key] = t
			}
		}
	}
	s := tr.begin("warmup", cellName(g.cells[g.warm]), root, 0)
	_, err := r.RunGrid(context.Background(), g.cells[g.warm:g.warm+1])
	tr.end(s)
	return r, time.Since(start), err
}

// pass runs the whole grid once through RunGrid and returns the results,
// each cell's wall time (taken between completion callbacks: the grid
// runs serially) and the pass's wall time.
func (g *simGrid) pass(r *core.Runner) ([]core.RunResult, []float64, time.Duration, error) {
	times := make([]float64, 0, len(g.cells))
	start := time.Now()
	last := start
	res, err := r.RunGridNotify(context.Background(), g.cells, func(int, core.RunResult) {
		now := time.Now()
		times = append(times, now.Sub(last).Seconds())
		last = now
	})
	return res, times, time.Since(start), err
}

// layerAcc sums the exact model counts and host spans of a traced run.
type layerAcc struct {
	genOps, initLines       int
	events                  uint64
	counters                map[string]uint64
	fenceStalls, coreCycles uint64
	relatedRun, multiRun    time.Duration
}

func newLayerAcc() *layerAcc { return &layerAcc{counters: make(map[string]uint64)} }

func (a *layerAcc) addTrace(t *trace.Trace) {
	if a != nil {
		a.genOps += len(t.Ops)
	}
}

// modelCounters are the per-system stats counters summed over cells.
var modelCounters = []string{
	"masu.serial_macs", "masu.nvm_writes", "masu.tree_misses", "masu.counter_misses",
	"wpq.inserted", "wpq.retry_events", "mem.reads",
}

func (a *layerAcc) addResult(rr core.RunResult) {
	a.events += rr.Events
	for _, name := range modelCounters {
		a.counters[name] += rr.Stats.Counter(name).Value()
	}
	a.fenceStalls += uint64(rr.Result.FenceStalls)
	a.coreCycles += uint64(rr.Result.Cycles) * uint64(max(rr.Result.Cores, 1))
}

// relatedSchemes are the registry's related-work competitors: the
// entries that model a recovery procedure.
func relatedSchemes() map[controller.Scheme]bool {
	m := make(map[controller.Scheme]bool)
	for _, e := range scheme.All() {
		if e.Caps.ReportsRecovery {
			m[e.ID] = true
		}
	}
	return m
}

// controllerConfig mirrors the configuration core.Runner builds for a
// cell (spec defaults and the fixed processor keys).
func controllerConfig(spec core.Spec, fast bool) controller.Config {
	if spec.HardwareWPQ == 0 {
		spec.HardwareWPQ = 16
	}
	cfg := controller.Config{
		Scheme:            spec.Scheme,
		Tree:              spec.Tree,
		HardwareWPQ:       spec.HardwareWPQ,
		DisableCoalescing: spec.DisableCoalescing,
		CounterCacheBytes: spec.CounterCacheBytes,
		MaSUInterval:      sim.Cycle(spec.MaSUInterval),
		OsirisPeriod:      spec.OsirisPeriod,
		TriadLevels:       spec.TriadLevels,
		FastMode:          spec.FastMode || fast,
	}
	copy(cfg.AESKey[:], "dolos-aes-key-16")
	copy(cfg.MACKey[:], "dolos-mac-key-16")
	return cfg
}

// tracedCell runs one cell stage by stage, each stage in its own span.
func (g *simGrid) tracedCell(r *core.Runner, c core.Cell, tr *tracer, root int, acc *layerAcc) (core.RunResult, error) {
	id := cellName(c)
	start := time.Now()
	cfg := controllerConfig(c.Spec, g.opts.FastMode)
	if c.Spec.Cores > 1 {
		cores := make([]mcore.CoreSpec, c.Spec.Cores)
		for i := range cores {
			var t *trace.Trace
			if i == 0 {
				var err error
				if t, err = r.Trace(c.Workload, traceSize(c)); err != nil {
					return core.RunResult{}, err
				}
			} else if t = g.coreTraces[fmt.Sprintf("%s/%d/core%d", c.Workload, traceSize(c), i)]; t == nil {
				return core.RunResult{}, fmt.Errorf("%s: no trace for core %d", id, i)
			}
			acc.initLines += len(t.InitImage)
			cores[i] = mcore.CoreSpec{Workload: c.Workload, Seed: mcore.CoreSeed(g.opts.Seed, i), Trace: t}
		}
		s := tr.begin("mcore.new", id, root, 0)
		sys := mcore.NewSystem(mcore.Config{Ctrl: cfg, Window: c.Spec.OoOWindow}, cores)
		tr.end(s)
		s = tr.begin("cpu.preload", id, root, 0)
		sys.Start()
		tr.end(s)
		s = tr.begin("sim.run", id, root, 0)
		sys.Eng.Run(0)
		sys.Ctrl.Quiesce()
		tr.end(s)
		for _, cr := range sys.Cores {
			if !cr.Finished() {
				return core.RunResult{}, fmt.Errorf("%s: core %d deadlocked", id, cr.ID())
			}
		}
		s = tr.begin("mcore.collect", id, root, 0)
		res := sys.Collect()
		tr.end(s)
		return core.RunResult{Result: res, Events: sys.Eng.Processed(), Wall: time.Since(start), Stats: sys.Ctrl.Stats()}, nil
	}
	if c.Spec.OoOWindow > 0 {
		return core.RunResult{}, fmt.Errorf("%s: the traced path covers in-order single-core cells only", id)
	}
	t, err := r.Trace(c.Workload, traceSize(c))
	if err != nil {
		return core.RunResult{}, err
	}
	acc.initLines += len(t.InitImage)
	s := tr.begin("cpu.new", id, root, 0)
	sys := cpu.NewSystem(cfg)
	tr.end(s)
	s = tr.begin("cpu.preload", id, root, 0)
	sys.Start(t)
	tr.end(s)
	s = tr.begin("sim.run", id, root, 0)
	sys.Eng.Run(0)
	sys.Ctrl.Quiesce()
	tr.end(s)
	if !sys.Finished() {
		return core.RunResult{}, fmt.Errorf("%s: trace execution deadlocked", id)
	}
	s = tr.begin("cpu.collect", id, root, 0)
	res := sys.Collect(t)
	tr.end(s)
	return core.RunResult{Result: res, Events: sys.Eng.Processed(), Wall: time.Since(start), Stats: sys.Ctrl.Stats()}, nil
}

// tracedPass runs every cell through tracedCell under one root span per
// cell, and returns the results and the pass's wall time.
func (g *simGrid) tracedPass(r *core.Runner, tr *tracer, acc *layerAcc) ([]core.RunResult, time.Duration, []error) {
	related := relatedSchemes()
	out := make([]core.RunResult, len(g.cells))
	var errs []error
	start := time.Now()
	for i, c := range g.cells {
		name := "cell"
		if c.Spec.Cores > 1 {
			name = "mcore.run"
		}
		root := tr.begin(name, cellName(c), -1, 0)
		rr, err := g.tracedCell(r, c, tr, root, acc)
		tr.end(root)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out[i] = rr
		acc.addResult(rr)
		d := rr.Wall
		if c.Spec.Cores > 1 {
			acc.multiRun += d
		}
		if related[c.Spec.Scheme] {
			acc.relatedRun += d
		}
	}
	return out, time.Since(start), errs
}

// cellFields are the deterministic fields of one cell's result: what
// expected.json pins and what every pass must reproduce.
type cellFields struct {
	Cell           string `json:"cell"`
	Cycles         uint64 `json:"cycles"`
	Ops            int    `json:"ops"`
	Events         uint64 `json:"events"`
	WriteRequests  uint64 `json:"write_requests"`
	RetryEvents    uint64 `json:"retry_events"`
	RecoveryCycles uint64 `json:"recovery_cycles"`
}

func fieldsOf(c core.Cell, rr core.RunResult) cellFields {
	return cellFields{
		Cell:           cellName(c),
		Cycles:         uint64(rr.Result.Cycles),
		Ops:            rr.Result.Ops,
		Events:         rr.Events,
		WriteRequests:  rr.Result.WriteRequests,
		RetryEvents:    rr.Result.RetryEvents,
		RecoveryCycles: rr.Result.RecoveryCycles,
	}
}

// fig12ErrOfCells computes fig12_err from the single-core Figure 12
// cells found among fields (cell names as cellName writes them).
func fig12ErrOfCells(fields []cellFields) (float64, error) {
	cycles := make(map[string]uint64, len(fields))
	for _, f := range fields {
		cycles[f.Cell] = f.Cycles
	}
	var sum [3]float64
	n := 0
	for _, w := range whisper.Names() {
		base := cycles[fmt.Sprintf("%s/%s/1c", w, fig12Schemes[0])]
		if base == 0 {
			continue
		}
		for j, s := range fig12Schemes[1:] {
			c := cycles[fmt.Sprintf("%s/%s/1c", w, s)]
			if c == 0 {
				return 0, fmt.Errorf("fig12_err: no %s cell for %s", s, w)
			}
			sum[j] += float64(base) / float64(c)
		}
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("fig12_err: no baseline cells")
	}
	for j := range sum {
		sum[j] /= float64(n)
	}
	return fig12Err(sum), nil
}

// check compares one pass's results against the reference fields,
// counting every failed or diverging cell.
func (g *simGrid) check(o *outcome, what string, res []core.RunResult, err error, ref []cellFields) []cellFields {
	got := make([]cellFields, len(g.cells))
	if err != nil {
		o.problem("%s: %v", what, err)
	}
	for i, c := range g.cells {
		o.attempted++
		if res[i].Stats == nil {
			o.failed++
			continue
		}
		got[i] = fieldsOf(c, res[i])
		if ref != nil && got[i] != ref[i] {
			o.failed++
			o.problem("%s: %s diverges: got %+v, want %+v", what, got[i].Cell, got[i], ref[i])
		}
	}
	return got
}

// expectedFor returns the pinned fields of the grid's cells at the
// default seed, in grid order.
func (g *simGrid) expectedFor() ([]cellFields, error) {
	exp, ok := expected[g.name]
	if !ok {
		return nil, fmt.Errorf("expected.json has no %s section", g.name)
	}
	if exp.Transactions != g.opts.Transactions {
		return nil, fmt.Errorf("expected.json %s is at %d transactions, grid at %d", g.name, exp.Transactions, g.opts.Transactions)
	}
	byName := make(map[string]cellFields, len(exp.Cells))
	for _, f := range exp.Cells {
		byName[f.Cell] = f
	}
	out := make([]cellFields, len(g.cells))
	for i, c := range g.cells {
		f, ok := byName[cellName(c)]
		if !ok {
			return nil, fmt.Errorf("expected.json %s has no cell %s", g.name, cellName(c))
		}
		out[i] = f
	}
	return out, nil
}

// fig12Reference runs the Figure 12 cells at the default seed in fast
// mode (every deterministic field equals the functional run's), holds
// them to expected.json and returns their fig12_err. Every workload
// reports fig12_err from it, so the value is the same in every run and
// moves only when the model does (and expected.json with it).
func fig12Reference(o *outcome) (float64, error) {
	g, err := newSimGrid("fig12", defaultSeed)
	if err != nil {
		return 0, err
	}
	want, err := g.expectedFor()
	if err != nil {
		return 0, err
	}
	opts := g.opts
	opts.FastMode = true
	res, err := core.NewRunner(opts).RunGrid(context.Background(), g.cells)
	return fig12ErrOfCells(g.check(o, "fig12 reference (seed 1)", res, err, want))
}

// canary re-runs the grid's Hashmap cells at the default seed and
// checks them against expected.json, so every run, whatever its seed,
// is held to the pinned results.
func (g *simGrid) canary(o *outcome) {
	cg, err := newSimGrid(g.name, defaultSeed)
	if err != nil {
		o.problem("canary: %v", err)
		return
	}
	want, err := cg.expectedFor()
	if err != nil {
		o.problem("canary: %v", err)
		return
	}
	var cells []core.Cell
	var ref []cellFields
	for i, c := range cg.cells {
		if c.Workload == "Hashmap" && (c.Spec.Cores <= 1 || i == cg.warm) {
			cells = append(cells, c)
			ref = append(ref, want[i])
		}
	}
	cg.cells = cells
	res, err := core.NewRunner(cg.opts).RunGrid(context.Background(), cells)
	cg.check(o, "canary (seed 1)", res, err, ref)
}

func runSim(o *outcome, name string, a args) error {
	g, err := newSimGrid(name, a.seed)
	if err != nil {
		return err
	}
	if a.trace {
		return traceSim(o, g, a)
	}
	var r *core.Runner
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		var d time.Duration
		if r, d, err = g.setup(nil, nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	var ref []cellFields
	if a.seed == defaultSeed {
		if ref, err = g.expectedFor(); err != nil {
			return err
		}
	}
	var passes, cellTimes []float64
	need := samplesFor(0.9)
	start := time.Now()
	for {
		res, times, d, err := g.pass(r)
		got := g.check(o, fmt.Sprintf("pass %d", len(passes)+1), res, err, ref)
		if ref == nil {
			ref = got
		}
		passes = append(passes, d.Seconds())
		cellTimes = append(cellTimes, times...)
		el := time.Since(start).Seconds()
		if (el+mean(passes)/2 >= a.seconds && len(cellTimes) >= need) || el > hardCap(a) {
			break
		}
	}
	wall := time.Since(start).Seconds()
	if a.seed != defaultSeed {
		g.canary(o)
	}

	errPaper, err := fig12Reference(o)
	if err != nil {
		return err
	}
	p50, p90 := percentile(cellTimes, 0.5), percentile(cellTimes, 0.9)
	o.set("setup_s", median(setups))
	o.set("grid_s", mean(passes))
	o.setQ("job_p50_s", p50)
	o.setQ("job_p90_s", p90)
	o.set("jobs_per_s", float64(len(cellTimes))/wall)
	o.set("fig12_err", errPaper)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	o.set("max_rss_mb", rss)
	o.note("%s: %d cells/pass, pass times %.3v s, set-up times %.3v s", g.name, len(g.cells), passes, setups)
	return nil
}

// traceSim is the traced run of a sim workload: one untraced pass, then
// one pass stage by stage under spans and a CPU profile. Both passes
// must agree on every result field.
func traceSim(o *outcome, g *simGrid, a args) error {
	tr := newTracer()
	acc := newLayerAcc()
	r, _, err := g.setup(tr, acc)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}

	var want []cellFields
	if a.seed == defaultSeed {
		if want, err = g.expectedFor(); err != nil {
			return err
		}
	}
	res0, _, d0, err := g.pass(r)
	g.check(o, "untraced pass", res0, err, want)

	profPath := filepath.Join(a.outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", a.workload, a.seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	res1, d1, errs := g.tracedPass(r, tr, acc)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		o.problem("traced pass: %v", err)
	}
	for i, c := range g.cells {
		o.attempted++
		if res1[i].Stats == nil {
			o.failed++
			continue
		}
		if !reflect.DeepEqual(res0[i].Result, res1[i].Result) || res0[i].Events != res1[i].Events {
			o.failed++
			o.problem("traced pass: %s differs from the untraced pass", cellName(c))
		}
	}

	shares, _, err := profileShares(profPath)
	if err != nil {
		return err
	}
	var stages time.Duration
	for _, name := range stageSpans {
		stages += tr.total(name)
	}
	coverage := stages.Seconds() / d1.Seconds()
	if coverage < minStageCoverage {
		o.problem("stage spans cover %.1f%% of the traced pass, want at least %.0f%%", 100*coverage, 100*minStageCoverage)
	}
	setLayerZeros(o)
	o.set("whisper.gen_s", tr.total("whisper.gen").Seconds())
	o.set("whisper.ops", float64(acc.genOps))
	o.set("cpu.preload_s", tr.total("cpu.preload").Seconds())
	o.set("cpu.init_lines", float64(acc.initLines))
	simRun := tr.total("sim.run")
	o.set("sim.run_s", simRun.Seconds())
	o.set("sim.events", float64(acc.events))
	o.set("sim.ns_per_event", float64(simRun.Nanoseconds())/float64(max(acc.events, 1)))
	o.set("mcore.run_s", acc.multiRun.Seconds())
	o.set("masu.related_run_s", acc.relatedRun.Seconds())
	setModelCounts(o, acc)
	setShares(o, shares)
	o.set("trace.span_coverage", coverage)
	o.set("trace.overhead", d1.Seconds()/d0.Seconds())
	o.note("traced pass %.3fs vs untraced %.3fs; stage spans cover %.1f%% of the traced pass",
		d1.Seconds(), d0.Seconds(), 100*coverage)
	return writeTrace(o, tr, a)
}

func setModelCounts(o *outcome, acc *layerAcc) {
	for _, name := range modelCounters {
		o.set(name, float64(acc.counters[name]))
	}
	if acc.coreCycles > 0 {
		o.set("cpu.fence_stall_share", float64(acc.fenceStalls)/float64(acc.coreCycles))
	}
}

func setShares(o *outcome, shares map[string]float64) {
	var sum float64
	for _, l := range layers {
		o.set("prof."+l, shares[l])
		sum += shares[l]
	}
	o.note("prof.* shares sum to %.6f; unattributed (prof.other) %.2f%%", sum, 100*shares["other"])
	if shares["other"] >= maxUnattributed {
		o.problem("%.1f%% of the profile is unattributed (prof.other), want below %.0f%%", 100*shares["other"], 100*maxUnattributed)
	}
}

func writeTrace(o *outcome, tr *tracer, a args) error {
	path := filepath.Join(a.outDir, fmt.Sprintf("trace-%s-seed%d.json", a.workload, a.seed))
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	o.note("spans written to %s (Chrome trace JSON)", path)
	return nil
}

// gridFields runs cells serially through RunGrid and returns their
// deterministic fields.
func gridFields(opts core.Options, cells []core.Cell) ([]cellFields, error) {
	res, err := core.NewRunner(opts).RunGrid(context.Background(), cells)
	if err != nil {
		return nil, err
	}
	out := make([]cellFields, len(cells))
	for i, c := range cells {
		out[i] = fieldsOf(c, res[i])
	}
	return out, nil
}
