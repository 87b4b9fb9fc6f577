package main

// The serve-mix workload: one durable service node, driven over the /v2
// HTTP API by closed-loop clients whose seed-derived schedules mix
// fresh grid jobs (trace generation + functional simulation + WAL) with
// repeats of jobs they already saw complete (cache hits: HTTP, WAL
// append, LRU and SSE only). A last phase replays only repeats, so hit
// latency is measured without misses competing for the CPUs.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dolos/internal/core"
	"dolos/internal/masu"
	"dolos/internal/scheme"
	"dolos/internal/service"
	"dolos/internal/store"
	"dolos/internal/telemetry"
	"dolos/internal/whisper"
)

const (
	serveClients = 2 // closed-loop clients, one per host CPU
	// repeatsPerFresh is the number of repeat jobs that follow each
	// fresh job in a client's schedule.
	repeatsPerFresh = 3
	serveTxns       = 100 // transactions per cell of a fresh job
	warmTxns        = 200 // transactions per cell of the warm-up grid
	// serveCacheEntries keeps every result of a run in the LRU, so a
	// repeat is always a hit (cmd/dolos-serve -cache).
	serveCacheEntries = 1 << 16
	// hitShare is the share of an untraced run spent in the hits-only
	// phase; the mixed phase takes the rest.
	hitShare = 0.25
)

// serveMain is the server child: service.New behind net/http on a
// loopback port, with a durable store, configured as cmd/dolos-serve
// is. It prints its address on the first line of standard output. With
// -cpuprofile it starts a CPU profile on SIGUSR1; SIGTERM stops the
// profile, drains the service and exits.
func serveMain(argv []string) int {
	fs := flag.NewFlagSet("perfbench serve", flag.ContinueOnError)
	storeDir := fs.String("store-dir", "", "durable store directory")
	profPath := fs.String("cpuprofile", "", "CPU profile written at shutdown (started by SIGUSR1)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, syscall.SIGUSR1, syscall.SIGTERM, syscall.SIGINT)

	st, err := store.Open(*storeDir, store.WithAutoCompact(16<<20))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	defer st.Close()
	svc := service.New(service.Config{
		CacheEntries:   serveCacheEntries,
		DefaultTimeout: 2 * time.Minute,
		Store:          st,
		Registry:       telemetry.NewRegistry(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	fmt.Println(ln.Addr().String())

	var prof *os.File
	for sig := range sigs {
		if sig != syscall.SIGUSR1 {
			break
		}
		if *profPath != "" && prof == nil {
			if prof, err = os.Create(*profPath); err == nil {
				err = pprof.StartCPUProfile(prof)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench serve:", err)
				return 1
			}
		}
	}
	if prof != nil {
		pprof.StopCPUProfile()
		prof.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc.Shutdown(ctx)
	srv.Shutdown(ctx)
	return 0
}

// server is a running server child.
type server struct {
	cmd  *exec.Cmd
	base string
	dir  string
}

func startServer(dir, profPath string) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	argv := []string{"serve", "-store-dir", dir}
	if profPath != "" {
		argv = append(argv, "-cpuprofile", profPath)
	}
	cmd := exec.Command(exe, argv...)
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, dir: dir}
	addr := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(out).ReadString('\n')
		addr <- strings.TrimSpace(line)
		io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addr:
		if a == "" {
			s.kill()
			return nil, errors.New("server exited before listening")
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("server did not start listening within 30s")
	}
}

func (s *server) signal(sig os.Signal) error { return s.cmd.Process.Signal(sig) }

// stop asks the server to drain and waits for it to exit.
func (s *server) stop() error {
	if err := s.signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return errors.New("server did not drain within 60s")
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: 2 * serveClients,
	DisableCompression:  true,
}}

// jobRun is one job as the client saw it.
type jobRun struct {
	client  int
	request service.Request
	fresh   bool
	refused bool
	err     error
	recs    []record // a fresh job's decoded cells

	latency   time.Duration // submit -> SSE done
	firstCell time.Duration // submit -> first SSE cell
	postRTT   time.Duration
	resultRTT time.Duration
	gaps      []float64 // between successive SSE cells
	cells     [][]byte  // SSE cell records, in order
	result    []byte    // GET .../result body
}

// runJob submits body, reads the SSE stream to its terminal event and
// fetches the result document, checking that the stream delivered
// cells 0..want-1 in order, each once, and that the result document
// holds exactly those records.
func runJob(s *server, body []byte, want int, tr *tracer, track int, id string) jobRun {
	var j jobRun
	root := tr.begin("job", id, -1, track)
	defer tr.end(root)
	start := time.Now()

	sp := tr.begin("service.submit", id, root, track)
	resp, err := httpClient.Post(s.base+"/v2/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.postRTT = time.Since(start)
	tr.end(sp)
	if resp.StatusCode == http.StatusTooManyRequests {
		j.refused = true
		return j
	}
	var st service.JobV2
	if resp.StatusCode/100 != 2 || json.Unmarshal(b, &st) != nil {
		j.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		return j
	}
	if st.Cells != want {
		j.err = fmt.Errorf("job %s: %d cells, want %d", st.ID, st.Cells, want)
		return j
	}

	sp = tr.begin("service.stream", id, root, track)
	if j.err = j.readStream(s.base+"/v2/jobs/"+st.ID+"/stream", start, want); j.err != nil {
		return j
	}
	j.latency = time.Since(start)
	tr.end(sp)

	sp = tr.begin("service.result", id, root, track)
	t := time.Now()
	resp, err = httpClient.Get(s.base + "/v2/jobs/" + st.ID + "/result")
	if err != nil {
		j.err = err
		return j
	}
	j.result, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	j.resultRTT = time.Since(t)
	tr.end(sp)
	if err != nil || resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("result %s: HTTP %d %v", st.ID, resp.StatusCode, err)
		return j
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, j.result); err != nil {
		j.err = fmt.Errorf("result %s: %v", st.ID, err)
		return j
	}
	if streamed := "[" + string(bytes.Join(j.cells, []byte(","))) + "]"; compact.String() != streamed {
		j.err = fmt.Errorf("result %s differs from its streamed cells", st.ID)
	}
	return j
}

// readStream consumes one SSE stream up to its terminal event.
func (j *jobRun) readStream(url string, start time.Time, want int) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var event string
	var last time.Time
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "cell":
			now := time.Now()
			var ev struct {
				Index  int             `json:"index"`
				Total  int             `json:"total"`
				Record json.RawMessage `json:"record"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return fmt.Errorf("stream: %v", err)
			}
			if ev.Index != len(j.cells) || ev.Total != want {
				return fmt.Errorf("stream: cell %d/%d after %d cells of %d", ev.Index, ev.Total, len(j.cells), want)
			}
			if len(j.cells) == 0 {
				j.firstCell = now.Sub(start)
			} else {
				j.gaps = append(j.gaps, now.Sub(last).Seconds())
			}
			last = now
			j.cells = append(j.cells, ev.Record)
		case strings.HasPrefix(line, "data: ") && event == "done":
			if len(j.cells) != want {
				return fmt.Errorf("stream: done after %d of %d cells", len(j.cells), want)
			}
			return nil
		case strings.HasPrefix(line, "data: ") && event == "failed":
			return fmt.Errorf("job failed: %s", strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream: ended without a terminal event")
}

// schedule is one client's seed-derived job sequence: a fresh grid job,
// then repeatsPerFresh repeats, each naming one of this client's
// requests that has already completed.
type schedule struct {
	rng       *rand.Rand
	client    int
	fresh     []service.Request
	seeds     map[int64]bool
	completed []int
	k         int
}

func newSchedule(seed int64, client int) *schedule {
	return &schedule{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client))),
		client: client,
		seeds:  make(map[int64]bool),
	}
}

// next returns the next request index and whether it is fresh.
func (s *schedule) next() (int, bool) {
	defer func() { s.k++ }()
	if s.k%(repeatsPerFresh+1) != 0 && len(s.completed) > 0 {
		return s.repeat(), false
	}
	names := whisper.Names()
	entries := scheme.All()
	wl := s.rng.Perm(len(names))
	sc := s.rng.Perm(len(entries))
	// Client-disjoint workload seeds, distinct within a client: every
	// fresh job is a cache miss.
	seed := int64(s.client+1)<<40 | s.rng.Int63n(1<<40)
	for s.seeds[seed] {
		seed++
	}
	s.seeds[seed] = true
	s.fresh = append(s.fresh, service.Request{
		Workloads:    []string{names[wl[0]], names[wl[1]]},
		Schemes:      []string{entries[sc[0]].Name, entries[sc[1]].Name},
		Tree:         "eager",
		Transactions: serveTxns,
		TxSize:       simTxSize,
		Seed:         seed,
	})
	return len(s.fresh) - 1, true
}

// repeat returns one of the completed requests; there must be one.
func (s *schedule) repeat() int { return s.completed[s.rng.Intn(len(s.completed))] }

// client is one closed-loop client's state, kept across the phases of a
// run: its schedule and the first completed result of every request.
type client struct {
	id        int
	sched     *schedule
	firstSeen map[int][]byte
}

func newClients(seed int64) []*client {
	cs := make([]*client, serveClients)
	for c := range cs {
		cs[c] = &client{id: c, sched: newSchedule(seed, c), firstSeen: make(map[int][]byte)}
	}
	return cs
}

// warmupRequest is the fig12 grid (every workload under the baseline
// and the three Dolos designs) at warmTxns, as one /v2 job.
func warmupRequest(seed int64) service.Request {
	var schemes []string
	for _, s := range fig12Schemes {
		schemes = append(schemes, s.String())
	}
	return service.Request{
		Workloads: whisper.Names(), Schemes: schemes, Tree: "eager",
		Transactions: warmTxns, TxSize: simTxSize, Seed: seed,
	}
}

// record is the part of a RunRecord the checks and layer sums read.
type record struct {
	Scheme          string  `json:"scheme"`
	Workload        string  `json:"workload"`
	Seed            int64   `json:"seed"`
	Cores           int     `json:"cores"`
	Ops             int     `json:"ops"`
	Cycles          uint64  `json:"cycles"`
	FenceStall      uint64  `json:"fence_stall_cycles"`
	WriteRequests   uint64  `json:"write_requests"`
	RetryEvents     uint64  `json:"retry_events"`
	RecoveryCycles  uint64  `json:"recovery_cycles"`
	WallSeconds     float64 `json:"wall_seconds"`
	EventsProcessed uint64  `json:"events_processed"`
	Metrics         struct {
		Counters map[string]uint64 `json:"counters"`
	} `json:"metrics"`
}

func (r record) fields() cellFields {
	return cellFields{
		Cell:   fmt.Sprintf("%s/%s/%dc", r.Workload, r.Scheme, max(r.Cores, 1)),
		Cycles: r.Cycles, Ops: r.Ops, Events: r.EventsProcessed,
		WriteRequests: r.WriteRequests, RetryEvents: r.RetryEvents, RecoveryCycles: r.RecoveryCycles,
	}
}

func decodeRecords(cells [][]byte) ([]record, error) {
	out := make([]record, len(cells))
	for i, c := range cells {
		if err := json.Unmarshal(c, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkRecords verifies that recs are the cells req asked for, in grid
// order (workloads outer, schemes inner).
func checkRecords(req service.Request, recs []record) error {
	for i, r := range recs {
		w := req.Workloads[i/len(req.Schemes)]
		e, err := scheme.Parse(req.Schemes[i%len(req.Schemes)])
		if err != nil {
			return err
		}
		if r.Workload != w || r.Scheme != e.Label || r.Seed != req.Seed {
			return fmt.Errorf("cell %d is %s/%s seed %d, want %s/%s seed %d", i, r.Workload, r.Scheme, r.Seed, w, e.Label, req.Seed)
		}
	}
	return nil
}

// requestFields computes the deterministic fields of req's grid in this
// process. It runs in fast mode: every deterministic field is identical
// to the service's functional run.
func requestFields(req service.Request) ([]cellFields, error) {
	var cells []core.Cell
	for _, w := range req.Workloads {
		for _, s := range req.Schemes {
			e, err := scheme.Parse(s)
			if err != nil {
				return nil, err
			}
			cells = append(cells, core.Cell{Workload: w, Spec: core.Spec{Scheme: e.ID, Tree: masu.BMTEager, TxSize: req.TxSize}})
		}
	}
	return gridFields(core.Options{Transactions: req.Transactions, Seed: req.Seed, Parallelism: 1, FastMode: true}, cells)
}

// verifyInProcess compares the service's records for req with an
// in-process run.
func verifyInProcess(req service.Request, recs []record) error {
	want, err := requestFields(req)
	if err != nil {
		return err
	}
	return compareFields(recs, want)
}

func compareFields(recs []record, want []cellFields) error {
	if len(recs) != len(want) {
		return fmt.Errorf("%d cells, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if got := r.fields(); got != want[i] {
			return fmt.Errorf("cell %d: got %+v, want %+v", i, got, want[i])
		}
	}
	return nil
}

// setupServe starts a server on a fresh store and runs the warm-up job:
// the set-up time runs from process start until that job is done.
func setupServe(o *outcome, a args, dir, profPath string) (*server, time.Duration, []record, error) {
	body, _ := json.Marshal(warmupRequest(a.seed))
	start := time.Now()
	s, err := startServer(dir, profPath)
	if err != nil {
		return nil, 0, nil, err
	}
	j := runJob(s, body, len(whisper.Names())*len(fig12Schemes), nil, 0, "warmup")
	d := time.Since(start)
	o.attempted++
	if j.err != nil || j.refused {
		s.kill()
		return nil, 0, nil, fmt.Errorf("warm-up job: %v (refused %t)", j.err, j.refused)
	}
	recs, err := decodeRecords(j.cells)
	if err != nil {
		s.kill()
		return nil, 0, nil, err
	}
	return s, d, recs, nil
}

// loopResult is one closed-loop phase.
type loopResult struct {
	jobs []jobRun
	wall time.Duration
}

// closedLoop runs the clients against s until seconds have passed and
// the percentiles have their samples, checking every job as it lands.
// With hitsOnly every job repeats a request its client completed
// earlier; otherwise the clients follow their mixed schedules.
func closedLoop(o *outcome, s *server, a args, clients []*client, seconds float64, hitsOnly bool, tr *tracer) *loopResult {
	lr := &loopResult{}
	var mu sync.Mutex
	var stop atomic.Bool
	var fresh, total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range clients {
		if hitsOnly && len(cl.sched.completed) == 0 {
			continue
		}
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			var mine []jobRun
			for n := 0; !stop.Load(); n++ {
				var idx int
				var isFresh bool
				if hitsOnly {
					idx = cl.sched.repeat()
				} else {
					idx, isFresh = cl.sched.next()
				}
				req := cl.sched.fresh[idx]
				body, _ := json.Marshal(req)
				id := fmt.Sprintf("c%d/r%d/%d", cl.id, idx, n)
				j := runJob(s, body, len(req.Workloads)*len(req.Schemes), tr, cl.id+1, id)
				j.client, j.request, j.fresh = cl.id, req, isFresh
				if j.err == nil && !j.refused {
					if isFresh {
						recs, err := decodeRecords(j.cells)
						if err == nil {
							err = checkRecords(req, recs)
						}
						if err != nil {
							j.err = fmt.Errorf("fresh job %s: %v", id, err)
						} else {
							j.recs = recs
							cl.firstSeen[idx] = j.result
							cl.sched.completed = append(cl.sched.completed, idx)
							fresh.Add(1)
						}
					} else if !bytes.Equal(j.result, cl.firstSeen[idx]) {
						j.err = fmt.Errorf("repeat job %s is not byte-identical to its first completion", id)
					}
				}
				if j.err == nil && !j.refused {
					total.Add(1)
				}
				mine = append(mine, j)
			}
			mu.Lock()
			lr.jobs = append(lr.jobs, mine...)
			mu.Unlock()
		}(cl)
	}
	needFresh := int64(samplesFor(0.9))
	if hitsOnly {
		needFresh = 0
	}
	needJobs := int64(samplesFor(0.9))
	for !stop.Load() {
		time.Sleep(20 * time.Millisecond)
		el := time.Since(start).Seconds()
		if (el >= seconds && fresh.Load() >= needFresh && total.Load() >= needJobs) || el > hardCap(a) {
			stop.Store(true)
		}
	}
	wg.Wait()
	lr.wall = time.Since(start)
	for _, j := range lr.jobs {
		o.attempted++
		switch {
		case j.refused:
			o.failed++
		case j.err != nil:
			o.failed++
			o.problem("client %d: %v", j.client, j.err)
		}
	}
	return lr
}

// samples gathers the latency samples of the completed jobs.
type samples struct {
	all, hit, miss, first, gaps, post, result []float64
	completed                                 int
}

func (lr *loopResult) samples() samples {
	var s samples
	for _, j := range lr.jobs {
		if j.err != nil || j.refused {
			continue
		}
		s.completed++
		l := j.latency.Seconds()
		s.all = append(s.all, l)
		s.post = append(s.post, j.postRTT.Seconds())
		s.result = append(s.result, j.resultRTT.Seconds())
		if j.fresh {
			s.miss = append(s.miss, l)
			s.first = append(s.first, j.firstCell.Seconds())
			s.gaps = append(s.gaps, j.gaps...)
		} else {
			s.hit = append(s.hit, l)
		}
	}
	return s
}

// freshJobs returns the fresh jobs that completed and passed their
// checks.
func (lr *loopResult) freshJobs() []jobRun {
	var out []jobRun
	for _, j := range lr.jobs {
		if j.recs != nil && j.err == nil {
			out = append(out, j)
		}
	}
	return out
}

// scrape reads the server's Prometheus counters.
func scrape(s *server) (map[string]float64, error) {
	resp, err := httpClient.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m, sc.Err()
}

func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// checkWarmup holds a warm-up job to the in-process simulator, and the
// default-seed warm-up grid to expected.json. At any other seed the
// Figure 12 reference run holds the simulator to expected.json.
func checkWarmup(o *outcome, a args, recs []record) {
	fail := func(format string, args ...any) {
		o.failed++
		o.problem(format, args...)
	}
	req := warmupRequest(a.seed)
	if err := checkRecords(req, recs); err != nil {
		fail("warm-up job: %v", err)
		return
	}
	if err := verifyInProcess(req, recs); err != nil {
		fail("warm-up job vs in-process run: %v", err)
	}
	if a.seed == defaultSeed {
		if err := compareFields(recs, expected["serve-mix"].Cells); err != nil {
			fail("warm-up job vs expected.json: %v", err)
		}
	}
}

func runServe(o *outcome, a args) error {
	work := filepath.Join(a.root, ".bench_build", fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	if a.trace {
		return traceServe(o, a, work)
	}

	var setups []float64
	var s *server
	var warm []record
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		var d time.Duration
		var err error
		var recs []record
		if s, d, recs, err = setupServe(o, a, filepath.Join(work, fmt.Sprintf("store%d", k)), ""); err != nil {
			return err
		}
		if warm != nil {
			if err := compareFields(recs, fieldsOfRecords(warm)); err != nil {
				o.failed++
				o.problem("warm-up job of set-up %d differs from set-up 1: %v", k+1, err)
			}
		}
		warm = recs
		setups = append(setups, d.Seconds())
	}
	checkWarmup(o, a, warm)

	clients := newClients(a.seed)
	lr := closedLoop(o, s, a, clients, (1-hitShare)*a.seconds, false, nil)
	hits := closedLoop(o, s, a, clients, hitShare*a.seconds, true, nil)
	rss, err := peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
	if err != nil {
		s.kill()
		return err
	}
	if err := s.stop(); err != nil {
		return err
	}
	spotCheck(o, lr)

	sm, hs := lr.samples(), hits.samples()
	errPaper, err := fig12Reference(o)
	if err != nil {
		return err
	}
	o.set("setup_s", median(setups))
	o.setQ("grid_s", percentile(sm.miss, 0.5))
	o.setQ("job_p50_s", percentile(hs.hit, 0.5))
	o.setQ("job_p90_s", percentile(sm.all, 0.9))
	o.set("jobs_per_s", float64(sm.completed)/lr.wall.Seconds())
	o.set("max_rss_mb", rss)
	o.set("fig12_err", errPaper)
	o.note("hit_p50_s %s (mixed phase)", percentile(sm.hit, 0.5))
	o.note("hit_p90_s %s (mixed phase)", percentile(sm.hit, 0.9))
	o.note("hit_p90_s %s (hits-only phase)", percentile(hs.hit, 0.9))
	o.note("miss_p50_s %s", percentile(sm.miss, 0.5))
	o.note("miss_p90_s %s", percentile(sm.miss, 0.9))
	o.note("first_cell_p50_s %s", percentile(sm.first, 0.5))
	o.note("serve-mix: %d clients; mixed phase %d jobs (%d fresh) in %.2fs, hits-only phase %d jobs in %.2fs; set-up times %.3v s",
		serveClients, sm.completed, len(sm.miss), lr.wall.Seconds(), hs.completed, hits.wall.Seconds(), setups)
	return nil
}

func fieldsOfRecords(recs []record) []cellFields {
	out := make([]cellFields, len(recs))
	for i, r := range recs {
		out[i] = r.fields()
	}
	return out
}

// spotCheck recomputes each client's first fresh job in process.
func spotCheck(o *outcome, lr *loopResult) {
	seen := make(map[int]bool)
	for _, j := range lr.freshJobs() {
		if seen[j.client] {
			continue
		}
		seen[j.client] = true
		if err := verifyInProcess(j.request, j.recs); err != nil {
			o.failed++
			o.problem("fresh job (seed %d) vs in-process run: %v", j.request.Seed, err)
		}
	}
}

// traceServe is the traced run: an untraced phase, then a traced phase
// (client spans + server CPU profile) on a fresh server, each for half
// the run. Fresh jobs both phases completed must agree.
func traceServe(o *outcome, a args, work string) error {
	half := a.seconds / 2

	s, _, warm, err := setupServe(o, a, filepath.Join(work, "untraced"), "")
	if err != nil {
		return err
	}
	checkWarmup(o, a, warm)
	untraced := closedLoop(o, s, a, newClients(a.seed), half, false, nil)
	if err := s.stop(); err != nil {
		return err
	}

	tr := newTracer()
	profPath := filepath.Join(work, "server.pprof")
	s, _, _, err = setupServe(o, a, filepath.Join(work, "traced"), profPath)
	if err != nil {
		return err
	}
	before, err := scrape(s)
	if err != nil {
		s.kill()
		return err
	}
	walBefore := dirSize(s.dir)
	if err := s.signal(syscall.SIGUSR1); err != nil {
		s.kill()
		return err
	}
	traced := closedLoop(o, s, a, newClients(a.seed), half, false, tr)
	after, err := scrape(s)
	if err != nil {
		s.kill()
		return err
	}
	walAfter := dirSize(s.dir)
	if err := s.stop(); err != nil {
		return err
	}
	shares, _, err := profileShares(profPath)
	if err != nil {
		return err
	}

	// Both phases replay the same schedules; their common fresh
	// requests must give identical deterministic fields.
	bySeed := make(map[int64][]record)
	for _, j := range untraced.freshJobs() {
		bySeed[j.request.Seed] = j.recs
	}
	tFresh := traced.freshJobs()
	compared := 0
	for _, j := range tFresh {
		if u, ok := bySeed[j.request.Seed]; ok {
			compared++
			if err := compareFields(j.recs, fieldsOfRecords(u)); err != nil {
				o.failed++
				o.problem("fresh job seed %d: traced phase differs from untraced: %v", j.request.Seed, err)
			}
		}
	}

	sm := traced.samples()
	setLayerZeros(o)
	var wall, relatedRun float64
	var events uint64
	acc := newLayerAcc()
	related := relatedSchemes()
	for _, j := range tFresh {
		for _, r := range j.recs {
			wall += r.WallSeconds
			events += r.EventsProcessed
			acc.genOps += r.Ops
			for _, name := range modelCounters {
				acc.counters[name] += r.Metrics.Counters[name]
			}
			acc.fenceStalls += r.FenceStall
			acc.coreCycles += r.Cycles * uint64(max(r.Cores, 1))
			if e, err := scheme.Parse(r.Scheme); err == nil && related[e.ID] {
				relatedRun += r.WallSeconds
			}
		}
	}
	o.set("whisper.ops", float64(acc.genOps))
	o.set("sim.run_s", wall)
	o.set("sim.events", float64(events))
	o.set("sim.ns_per_event", wall*1e9/float64(max(events, 1)))
	o.set("masu.related_run_s", relatedRun)
	setModelCounts(o, acc)
	setShares(o, shares)
	o.set("service.submit_p50_s", percentile(sm.post, 0.5).Value)
	o.set("service.result_p50_s", percentile(sm.result, 0.5).Value)
	o.set("service.cell_gap_p50_s", percentile(sm.gaps, 0.5).Value)
	o.set("service.first_cell_p50_s", percentile(sm.first, 0.5).Value)
	o.set("service.hit_p50_s", percentile(sm.hit, 0.5).Value)
	o.set("service.hit_p90_s", percentile(sm.hit, 0.9).Value)
	o.set("service.miss_p50_s", percentile(sm.miss, 0.5).Value)
	o.set("service.miss_p90_s", percentile(sm.miss, 0.9).Value)
	delta := func(name string) float64 { return after[name] - before[name] }
	if n := delta("service_job_seconds_count"); n > 0 {
		o.set("service.job_mean_s", delta("service_job_seconds_sum")/n)
	}
	if n := delta("service_jobs_submitted_total"); n > 0 {
		o.set("service.cache_hit_ratio", delta("service_cache_hits_total")/n)
	}
	o.set("service.sims_executed", delta("service_sims_executed_total"))
	o.set("store.wal_bytes_per_job", float64(walAfter-walBefore)/float64(max(sm.completed, 1)))
	// The clients' stage spans (submit, stream, result) over the phase's
	// client time: what is left is the clients' own checks and loop.
	stages := tr.total("service.submit") + tr.total("service.stream") + tr.total("service.result")
	coverage := stages.Seconds() / (serveClients * traced.wall.Seconds())
	if coverage < minStageCoverage {
		o.problem("stage spans cover %.1f%% of the traced phase's client time, want at least %.0f%%", 100*coverage, 100*minStageCoverage)
	}
	o.set("trace.span_coverage", coverage)
	uRate := float64(untraced.samples().completed) / untraced.wall.Seconds()
	tRate := float64(sm.completed) / traced.wall.Seconds()
	o.set("trace.overhead", uRate/tRate)
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{{"submit", sm.post, 0.5}, {"result", sm.result, 0.5}, {"cell_gap", sm.gaps, 0.5},
		{"first_cell", sm.first, 0.5}, {"hit", sm.hit, 0.5}, {"hit", sm.hit, 0.9},
		{"miss", sm.miss, 0.5}, {"miss", sm.miss, 0.9}} {
		o.note("service.%s %s", q.name, percentile(q.xs, q.p))
	}
	o.note("untraced phase %.1f jobs/s, traced phase %.1f jobs/s; %d fresh requests compared across phases",
		uRate, tRate, compared)
	return writeTrace(o, tr, a)
}
