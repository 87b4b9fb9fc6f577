package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"dolos/internal/service"
)

// TestMain lets the test binary double as the serve-mix server child,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{0.5, 50, 50, true},
		{0.9, 90, 10, true},
		{0.95, 95, 5, false},
		{0.99, 99, 1, false},
	} {
		q := percentile(xs, c.p)
		if q.Value != c.value || q.Beyond != c.beyond || q.N != 100 || q.ok() != c.ok {
			t.Errorf("p%v = %+v ok=%v, want value %v beyond %d ok=%v", c.p, q, q.ok(), c.value, c.beyond, c.ok)
		}
	}
	if q := percentile(xs[:99], 0.9); q.ok() {
		t.Errorf("p90 of 99 samples has %d beyond; must not pass the samples-beyond rule", q.Beyond)
	}
	if q := percentile(nil, 0.5); q.ok() || q.N != 0 {
		t.Errorf("empty percentile = %+v", q)
	}
}

func TestSamplesFor(t *testing.T) {
	if n := samplesFor(0.9); n != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", n)
	}
	if n := samplesFor(0.5); n != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", n)
	}
}

func TestFig12Err(t *testing.T) {
	// EXPERIMENTS.md's Figure 12 means: 1.62 / 1.75 / 1.77.
	got := fig12Err([3]float64{1.62, 1.75, 1.77})
	if math.Round(got*1e4)/1e4 != 0.0638 {
		t.Errorf("fig12Err = %v, want 0.0638", got)
	}
	if got := fig12Err(paperFig12); got != 0 {
		t.Errorf("fig12Err(paper) = %v, want 0", got)
	}
}

func TestFig12ErrOfCells(t *testing.T) {
	// One workload at exactly the paper's speed-ups.
	base := uint64(1_000_000)
	fields := []cellFields{{Cell: "Hashmap/Pre-WPQ-Secure/1c", Cycles: base}}
	for i, s := range fig12Schemes[1:] {
		fields = append(fields, cellFields{Cell: "Hashmap/" + s.String() + "/1c",
			Cycles: uint64(math.Round(float64(base) / paperFig12[i]))})
	}
	got, err := fig12ErrOfCells(fields)
	if err != nil || got > 1e-6 {
		t.Errorf("fig12ErrOfCells = %v, %v; want ~0", got, err)
	}
	if _, err := fig12ErrOfCells(fields[:2]); err == nil {
		t.Error("a missing Dolos cell must be an error")
	}
}

func TestInternalPackagesHaveLayers(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dirs[e.Name()] = true
		if l := layerOf("dolos/internal/" + e.Name()); l == "other" {
			t.Errorf("internal/%s has no profile layer: add it to internalLayer", e.Name())
		}
	}
	for pkg := range internalLayer {
		if !dirs[pkg] {
			t.Errorf("internalLayer names internal/%s, which does not exist", pkg)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"dolos/internal/crypt.(*Engine).mac":                 "crypt",
		"crypto/sha256.blockAMD64":                           "crypt",
		"crypto/internal/fips140/aes.encryptBlockAsm":        "crypt",
		"dolos/internal/dense.(*Table[go.shape.uint64]).Get": "masu",
		"dolos/internal/sim.(*Engine).Step":                  "sim",
		"dolos/internal/mcore.(*OoO).step":                   "cpu",
		"dolos/internal/store.(*WAL).writeFrame":             "service",
		"net/http.(*conn).serve":                             "service",
		"encoding/json.(*decodeState).object":                "service",
		"syscall.Syscall6":                                   "service",
		"runtime.mallocgc":                                   "runtime",
		"internal/runtime/atomic.(*Uint32).Load":             "runtime",
		"sync.(*Mutex).Lock":                                 "runtime",
		"type:.eq.[64]uint8":                                 "runtime",
		"fmt.Fprintf":                                        "std",
		"slices.SortFunc[go.shape.[]string,go.shape.string]": "std",
		"main.runJob":                                        "harness",
		"dolos/perfbench.runJob":                             "harness",
		"dolos/internal/nosuchpkg.F":                         "other",
		"example.com/x.F":                                    "other",
	} {
		if got := layerOf(funcPackage(name)); got != want {
			t.Errorf("layerOf(%q) = %q (package %q), want %q", name, got, funcPackage(name), want)
		}
	}
}

// burnSHA keeps the CPU in crypto/sha256 for about d.
func burnSHA(d time.Duration) {
	buf := make([]byte, 1<<16)
	for start := time.Now(); time.Since(start) < d; {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
	}
}

func TestProfileShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burnSHA(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f.Close()
	shares, total, err := profileShares(path)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Skip("no CPU samples recorded")
	}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["crypt"] < 0.5 {
		t.Errorf("a SHA-256 loop put only %.0f%% in crypt: %v", 100*shares["crypt"], shares)
	}
}

func TestParseTop(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 1.10s, Total samples = 990000000ns (89.73%)
Showing nodes accounting for 990000000ns, 100% of 990000000ns total
      flat  flat%   sum%        cum   cum%
540000000ns 54.55% 54.55% 630000000ns 63.64%  slices.partitionOrdered[go.shape.int]
110000000ns 11.11% 65.66% 110000000ns 11.11%  cmp.Less[go.shape.int] (inline)
10000000ns  1.01% 66.67% 10000000ns  1.01%  crypto/internal/fips140/sha256.blockSHANI
         0     0% 66.67% 990000000ns   100%  runtime.main
`
	flat, err := parseTop([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"slices.partitionOrdered[go.shape.int]":     540e6,
		"cmp.Less[go.shape.int]":                    110e6,
		"crypto/internal/fips140/sha256.blockSHANI": 10e6,
		"runtime.main":                              0,
	}
	if !reflect.DeepEqual(flat, want) {
		t.Errorf("parseTop = %v, want %v", flat, want)
	}
	if _, err := parseTop([]byte("not a pprof listing")); err == nil {
		t.Error("parseTop accepted output without the flat/cum header")
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's metric lists to the
// ones this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		units := make(map[string]string)
		for _, m := range got {
			units[m.Name] = m.Unit
		}
		if len(units) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program reports %d", what, len(units), len(want))
		}
		for _, m := range want {
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("%s: program reports %s in %s, BENCHMARK.json has %q", what, m.name, m.unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestExpectedCoversGrids(t *testing.T) {
	for _, name := range []string{"fig12", "schemes-fast"} {
		g, err := newSimGrid(name, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.expectedFor(); err != nil {
			t.Error(err)
		}
	}
	if n, want := len(expected["serve-mix"].Cells), len(fig12Cells(warmupRequest(1).Workloads)); n != want {
		t.Errorf("expected.json serve-mix has %d cells, want %d", n, want)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	run := func(seed int64) []service.Request {
		s := newSchedule(seed, 0)
		var out []service.Request
		for k := 0; k < 12; k++ {
			idx, fresh := s.next()
			if fresh != (k%(repeatsPerFresh+1) == 0) {
				t.Fatalf("op %d: fresh=%v", k, fresh)
			}
			if fresh {
				s.completed = append(s.completed, idx)
			}
			out = append(out, s.fresh[idx])
		}
		return out
	}
	a, b := run(11), run(11)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, run(12)) {
		t.Error("different seeds gave the same schedule")
	}
}

// TestSimSmoke runs both sim workloads at a tiny size through set-up,
// an untraced pass and a traced pass, which must agree.
func TestSimSmoke(t *testing.T) {
	for _, name := range []string{"fig12", "schemes-fast"} {
		t.Run(name, func(t *testing.T) {
			g, err := newSimGrid(name, 5)
			if err != nil {
				t.Fatal(err)
			}
			g.opts.Transactions = 20
			tr, acc := newTracer(), newLayerAcc()
			r, _, err := g.setup(tr, acc)
			if err != nil {
				t.Fatal(err)
			}
			res0, times, _, err := g.pass(r)
			if err != nil || len(times) != len(g.cells) {
				t.Fatalf("pass: %v, %d cell times for %d cells", err, len(times), len(g.cells))
			}
			res1, _, errs := g.tracedPass(r, tr, acc)
			if len(errs) > 0 {
				t.Fatal(errs)
			}
			fields := make([]cellFields, len(g.cells))
			for i, c := range g.cells {
				if !reflect.DeepEqual(res0[i].Result, res1[i].Result) || res0[i].Events != res1[i].Events {
					t.Errorf("%s: traced and untraced results differ", cellName(c))
				}
				fields[i] = fieldsOf(c, res0[i])
			}
			if _, err := fig12ErrOfCells(fields); err != nil {
				t.Error(err)
			}
			if acc.events == 0 || tr.total("sim.run") <= 0 || tr.total("whisper.gen") <= 0 {
				t.Error("traced pass recorded no events or spans")
			}
		})
	}
}

// TestServeSmoke starts the server child on a temporary store, runs one
// fresh job and its repeat, and checks them.
func TestServeSmoke(t *testing.T) {
	s, err := startServer(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.kill()
	req := service.Request{Workloads: []string{"Hashmap", "Btree"}, Schemes: []string{"baseline", "stum"},
		Tree: "eager", Transactions: 30, TxSize: 1024, Seed: 9}
	body, _ := json.Marshal(req)
	first := runJob(s, body, 4, nil, 0, "fresh")
	if first.err != nil || first.refused {
		t.Fatalf("fresh job: %v (refused %v)", first.err, first.refused)
	}
	recs, err := decodeRecords(first.cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRecords(req, recs); err != nil {
		t.Error(err)
	}
	if err := verifyInProcess(req, recs); err != nil {
		t.Error(err)
	}
	again := runJob(s, body, 4, nil, 0, "repeat")
	if again.err != nil || !bytes.Equal(again.result, first.result) {
		t.Errorf("repeat: %v, byte-identical %v", again.err, bytes.Equal(again.result, first.result))
	}
	m, err := scrape(s)
	if err != nil || m["service_cache_hits_total"] != 1 {
		t.Errorf("metrics: %v, cache hits %v, want 1", err, m["service_cache_hits_total"])
	}
	if err := s.stop(); err != nil {
		t.Error(err)
	}
}
