package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/simllm"
)

const (
	serveSetups  = 5 // set-ups (fill generation and launch) timed for serve's setup_s
	readyTimeout = 60 * time.Second
	stopTimeout  = 30 * time.Second
	clockTicksHz = 100 // USER_HZ: the unit of utime/stime in /proc/<pid>/stat
)

// runChild runs a helper process to completion; cancelling ctx kills it.
func runChild(ctx context.Context, bin string, args ...string) error {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

// server is one galois-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// launch starts galois-serve on a free loopback port over dataDir with
// its default serving flags.
func launch(bin, dataDir, logPath string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting galois-serve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// waitReady polls /healthz until the server answers 200.
func (s *server) waitReady(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("galois-serve exited before ready: %v", s.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("galois-serve not ready in time")
}

// stop asks the server to drain (SIGTERM flushes the durable store) and
// waits for it to exit, killing it if it does not.
func (s *server) stop() error {
	select {
	case <-s.done:
		return nil
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		return s.err
	case <-time.After(stopTimeout):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("galois-serve did not drain in time; killed")
	}
}

// response is one answered request as the benchmark saw it.
type response struct {
	err      error
	latency  time.Duration
	firstRow time.Duration // NDJSON: time to the first row frame (0 if none)
	bytes    int64
	cached   any
	rel      rel
	stats    wireStats
}

// wireStats is the per-query usage galois-serve reports.
type wireStats struct {
	Prompts            int     `json:"prompts"`
	PromptTokens       int     `json:"prompt_tokens"`
	CacheHits          int     `json:"cache_hits"`
	CacheMisses        int     `json:"cache_misses"`
	SimulatedLatencyMS float64 `json:"simulated_latency_ms"`
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ask sends one query and reads the whole answer, buffered or NDJSON.
func ask(ctx context.Context, hc *http.Client, base, sql string, streamed bool) response {
	start := time.Now()
	var out response
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", strings.NewReader(sql))
	if err != nil {
		out.err = err
		return out
	}
	if streamed {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	resp, err := hc.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	body := &countingReader{r: resp.Body}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(body)
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	} else if streamed {
		out.err = readStream(body, start, &out)
	} else {
		var r struct {
			rel
			Cached any       `json:"cached"`
			Stats  wireStats `json:"stats"`
		}
		if out.err = json.NewDecoder(body).Decode(&r); out.err == nil {
			_, out.err = io.Copy(io.Discard, body)
		}
		out.rel, out.cached, out.stats = r.rel, r.Cached, r.Stats
	}
	out.latency = time.Since(start)
	out.bytes = body.n
	return out
}

// readStream reassembles an NDJSON answer: a header frame, row frames,
// then one stats (or error) frame.
func readStream(body io.Reader, start time.Time, out *response) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var sawHeader, sawStats bool
	for sc.Scan() {
		var f struct {
			Type    string    `json:"type"`
			Columns []string  `json:"columns"`
			Types   []string  `json:"types"`
			Cached  any       `json:"cached"`
			Cells   []string  `json:"cells"`
			Stats   wireStats `json:"stats"`
			Error   string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("bad NDJSON frame: %w", err)
		}
		switch f.Type {
		case "header":
			sawHeader = true
			out.rel.Columns, out.rel.Types, out.cached = f.Columns, f.Types, f.Cached
			out.rel.Rows = [][]string{}
		case "row":
			if len(out.rel.Rows) == 0 {
				out.firstRow = time.Since(start)
			}
			out.rel.Rows = append(out.rel.Rows, f.Cells)
		case "stats":
			sawStats = true
			out.stats = f.Stats
		case "error":
			return fmt.Errorf("stream error frame: %s", f.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawHeader || !sawStats {
		return errors.New("stream ended without header or stats frame")
	}
	return nil
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	MaxActive  int64 `json:"max_active"`
	RCHits     int64 `json:"result_cache_hits"`
	RCSubsumed int64 `json:"result_cache_subsumed_hits"`
	RCMisses   int64 `json:"result_cache_misses"`
	RCBytes    int64 `json:"result_cache_bytes"`
	Admission  struct {
		Limit int `json:"limit"`
	} `json:"admission"`
	Persistence struct {
		Store struct {
			Loaded int `json:"loaded"`
		} `json:"store"`
	} `json:"persistence"`
}

func fetchStats(ctx context.Context, hc *http.Client, base string) (serverStats, error) {
	var st serverStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicksHz, nil
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// serveRun drives the serve workload.
type serveRun struct {
	cfg     config
	hc      *http.Client
	data    string
	logPath string
	mix     *serveMix
	refs    *referencer
	tr      *tracer
	m       *measurement
	live    []*server
	// stored holds the warm generation's answers: what the server's
	// result cache holds for them.
	stored map[string]rel
	// subsumable counts timed child and limit requests; fellBack those
	// the server executed instead of subsuming (see pass).
	subsumable, fellBack int
	// planDependent counts answers that differ from their reference
	// because of the known plan-dependence fault (see planDependent).
	planDependent int
	planExamples  []string
	// probe is the known-fault probe's own server; probeHeld counts the
	// probes that, against expectation, matched their reference.
	probe     *server
	probeHeld int
	// launches are the set-ups' launches alone, until /healthz answers.
	launches []time.Duration
}

// The known-fault probe. galois-serve plans cost-based by default, and
// its result cache answers a child from a cached parent whatever plan
// produced the parent: this parent evaluates genre != 'Pop' on fetched
// genres, the child executed directly asks the model a yes/no filter
// question per singer, and the simulated model answers the two
// differently for two singers. So the child's answer (subsumed from the
// parent, or an exact hit on that answer once stored) differs from its
// reference on every pass. The probe runs on a server of its own, which
// sees only the probe's two statements, so its outcome depends neither
// on the seed nor on what the measured server has learned; it is counted
// in failed, once per pass.
const (
	probeParent = "SELECT name, genre FROM singer WHERE genre != 'Pop'"
	probeChild  = "SELECT name FROM singer WHERE genre != 'Pop' AND name != 'probe'"
)

// maxPlanExamples bounds the plan-dependent answers a run lists.
const maxPlanExamples = 5

// maxFallBackShare bounds the share of subsumable requests that may be
// executed instead: a lost race with an eviction is rare, a broken
// subsumption path is not.
const maxFallBackShare = 0.01

// runServe runs the serve workload: setup_s times an earlier generation
// filling a data directory and the launch onto it, and the last
// set-up's server serves closed-loop passes from one client.
func runServe(ctx context.Context, cfg config, runDir string, tr *tracer, m *measurement) (summary map[string]any, err error) {
	if cfg.serveBin == "" {
		return nil, errors.New("serve needs --serve-bin")
	}
	s := &serveRun{
		cfg:     cfg,
		hc:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}},
		logPath: filepath.Join(runDir, "galois-serve.log"),
		tr:      tr,
		m:       m,
		stored:  map[string]rel{},
	}
	defer func() {
		for _, srv := range s.live {
			if stopErr := srv.stop(); stopErr != nil && err == nil {
				err = stopErr
			}
		}
		s.hc.CloseIdleConnections()
		if err != nil {
			if log, readErr := os.ReadFile(s.logPath); readErr == nil {
				fmt.Fprintf(os.Stderr, "galois-serve log:\n%s", log)
			}
		}
	}()

	if s.refs, err = newReferencer(true); err != nil {
		return nil, err
	}
	planner, err := planningSession()
	if err != nil {
		return nil, err
	}
	if s.mix, err = newServeMix(cfg.seed, planner); err != nil {
		return nil, err
	}
	if err := s.refs.ensure(ctx, append(append([]string{probeChild}, s.mix.repeats...), s.mix.limits...)); err != nil {
		return nil, err
	}
	// Set-up is the earlier generation filling a fresh data directory
	// and the launch of the measured server over it, until /healthz
	// answers: the launch alone is mostly the store's fsyncs, whose time
	// follows the host's disk, not the program. The last set-up's server
	// is the one measured.
	var srv *server
	for i := 0; i < serveSetups; i++ {
		if i > 0 {
			if err := s.stopLive(); err != nil {
				return nil, err
			}
		}
		s.data = filepath.Join(runDir, fmt.Sprintf("data-%d", i))
		start := time.Now()
		if err := s.warmGeneration(ctx); err != nil {
			return nil, err
		}
		launched := time.Now()
		if srv, err = s.start(ctx); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start))
		s.launches = append(s.launches, time.Since(launched))
	}
	// Repeats are checked against what the server stored; what it stored
	// is checked here against the references.
	for _, sql := range s.mix.repeats {
		s.noteMismatch(serveRequest{SQL: sql, Kind: slotRepeat}, checkRel(sql, s.refs.refs[sql], s.stored[sql]))
	}
	st, err := fetchStats(ctx, s.hc, srv.base)
	if err != nil {
		return nil, err
	}
	m.storeLoaded = float64(st.Persistence.Store.Loaded)
	// Load every table's key-scan prompts into the fresh prompt cache,
	// and make the repeats the most recently used entries of the result
	// cache, as every later pass leaves them, so that the first pass
	// costs what every later pass costs and no repeat is evicted by the
	// first pass's inserts before it is asked for.
	var warmups []string
	for n := range novelTables {
		warmups = append(warmups, novelSQL(-1, n))
	}
	warmups = append(warmups, s.mix.repeats...)
	if _, err := s.sendAll(ctx, srv, warmups); err != nil {
		return nil, err
	}
	if err := s.startProbe(ctx); err != nil {
		return nil, err
	}

	pid := srv.cmd.Process.Pid
	begin := time.Now()
	for pass := 0; ; pass++ {
		if err := s.pass(ctx, srv, pid, pass); err != nil {
			return nil, err
		}
		if time.Since(begin) >= cfg.seconds && len(m.latencies) >= minQueries {
			break
		}
	}
	if float64(s.fellBack) > maxFallBackShare*float64(s.subsumable) {
		m.problem("%d of %d child and limit requests were executed instead of subsumed", s.fellBack, s.subsumable)
	}
	if st, err = fetchStats(ctx, s.hc, srv.base); err != nil {
		return nil, err
	}
	m.admissionLimit = float64(st.Admission.Limit)
	m.maxActive = float64(st.MaxActive)
	m.rcBytes = float64(st.RCBytes)
	if m.peakRSSKB, err = statusKB(pid, "VmHWM"); err != nil {
		return nil, err
	}
	if tr != nil {
		reqs, _, _ := s.mix.pass(0)
		sqls := make([]string, len(reqs))
		for i, r := range reqs {
			sqls[i] = r.SQL
		}
		if err := timePlanning(ctx, tr, planner, sqls, m); err != nil {
			return nil, err
		}
	}
	return map[string]any{
		"subsumed_fell_back": s.fellBack,
		"plan_dependent":     s.planDependent,
		"plan_examples":      s.planExamples,
		"probe_held":         s.probeHeld,
		"warm_statements":    len(s.mix.warm),
		"pass_makeup":        map[string]int{"repeat": serveRepeats, "limit": serveLimits, "child": serveChildren, "novel": serveNovel, "streamed": (len(s.mix.slots) + serveStreamed - 1) / serveStreamed},
		"store_loaded":       m.storeLoaded,
		"reference_count":    len(s.refs.refs),
		"setup_median_s":     medianOf(m.setups).Seconds(),
		"launch_median_s":    medianOf(s.launches).Seconds(),
		"prompts_per_pass":   m.prompts / int64(max(len(m.passes), 1)),
	}, nil
}

// planningSession opens a session over the benchmark fixture that the
// serve workload uses to fingerprint and plan statements; it never
// executes a query.
func planningSession() (*core.Session, error) {
	r, err := bench.NewRunner(modelSeed)
	if err != nil {
		return nil, err
	}
	rt, err := r.Runtime(r.Model(simllm.ChatGPT), referenceOptions(true))
	if err != nil {
		return nil, err
	}
	return rt.NewSession(), nil
}

// start launches a server over the data directory and waits for it.
func (s *serveRun) start(ctx context.Context) (*server, error) {
	srv, err := launch(s.cfg.serveBin, s.data, s.logPath)
	if err != nil {
		return nil, err
	}
	s.live = append(s.live, srv)
	return srv, srv.waitReady(ctx, s.hc)
}

// stopLive stops every running server.
func (s *serveRun) stopLive() error {
	var errs []error
	for _, srv := range s.live {
		errs = append(errs, srv.stop())
	}
	s.live = nil
	s.hc.CloseIdleConnections()
	return errors.Join(errs...)
}

// warmGeneration is the earlier server generation: it stores every
// warm statement's relation in a fresh data directory and drains.
func (s *serveRun) warmGeneration(ctx context.Context) error {
	srv, err := s.start(ctx)
	if err != nil {
		return err
	}
	answers, err := s.sendAll(ctx, srv, s.mix.warm)
	if err != nil {
		return err
	}
	for i, sql := range s.mix.warm {
		s.stored[sql] = answers[i]
	}
	return s.stopLive()
}

// startProbe launches the known-fault probe's server over a data
// directory of its own and stores the probe's parent there.
func (s *serveRun) startProbe(ctx context.Context) error {
	srv, err := launch(s.cfg.serveBin, filepath.Join(filepath.Dir(s.data), "probe-data"), s.logPath)
	if err != nil {
		return err
	}
	s.live = append(s.live, srv)
	if err := srv.waitReady(ctx, s.hc); err != nil {
		return err
	}
	s.probe = srv
	_, err = s.sendAll(ctx, srv, []string{probeParent})
	return err
}

// runProbe sends the probe's child once and counts it: failed while the
// fault stands, as expected.
func (s *serveRun) runProbe(ctx context.Context) {
	r := ask(ctx, s.hc, s.probe.base, probeChild, false)
	s.m.attempted++
	if r.err == nil && checkRel(probeChild, s.refs.refs[probeChild], r.rel) == nil {
		s.probeHeld++
		return
	}
	s.m.failed++
}

// sendAll sends untimed queries one at a time, requires each to
// succeed and returns their answers.
func (s *serveRun) sendAll(ctx context.Context, srv *server, sqls []string) ([]rel, error) {
	answers := make([]rel, len(sqls))
	for i, sql := range sqls {
		r := ask(ctx, s.hc, srv.base, sql, false)
		if r.err != nil {
			return nil, fmt.Errorf("untimed %q: %w", sql, r.err)
		}
		answers[i] = r.rel
	}
	return answers, nil
}

// noteMismatch records a failed comparison of req's answer. On a
// plan-dependent request it is the known fault the probe stands for: it
// is counted and listed in the run summary rather than failing the run,
// because which statements it touches depends on the seed.
func (s *serveRun) noteMismatch(req serveRequest, err error) {
	switch {
	case err == nil:
	case s.mix.planDependent(req):
		s.planDependent++
		if len(s.planExamples) < maxPlanExamples {
			s.planExamples = append(s.planExamples, fmt.Sprintf("%s (%s): %v", req.SQL, req.Kind, err))
		}
	default:
		s.m.problem("%s (%s): %v", req.SQL, req.Kind, err)
	}
}

// check compares one timed answer with what it must equal. A repeat
// must return the relation the server stored, bit for bit; a subsumed
// LIMIT consumer must keep rows of its stored producer (SQL leaves open
// which); every other answer is compared with its reference.
func (s *serveRun) check(req serveRequest, r response) {
	switch {
	case req.Kind == slotRepeat:
		if err := sameRel(req.SQL, s.stored[req.SQL], r.rel); err != nil {
			s.m.problem("%s (repeat): differs from the stored answer: %v", req.SQL, err)
		}
	case req.Kind == slotLimit && r.cached == "subsumed":
		spec := s.mix.limitOf[req.SQL]
		s.noteMismatch(req, checkLimit(spec, s.stored[spec.producer], r.rel))
	default:
		s.noteMismatch(req, checkRel(req.SQL, s.refs.refs[req.SQL], r.rel))
	}
}

// wantCached is the result-cache outcome each slot kind must report.
var wantCached = map[slotKind]any{
	slotRepeat: "exact",
	slotLimit:  "subsumed",
	slotChild:  "subsumed",
	slotNovel:  false,
}

// pass runs one pass: references and the pass's parents first, untimed;
// then the pass's requests from one closed-loop client, timed; then
// the checks.
func (s *serveRun) pass(ctx context.Context, srv *server, pid, p int) error {
	m := s.m
	reqs, parents, err := s.mix.pass(p)
	if err != nil {
		return err
	}
	sqls := make([]string, len(reqs))
	for i, r := range reqs {
		sqls[i] = r.SQL
	}
	if err := s.refs.ensure(ctx, sqls); err != nil {
		return err
	}
	if _, err := s.sendAll(ctx, srv, parents); err != nil {
		return err
	}

	// Collect the garbage the references left now, not during the pass,
	// where the collector would take CPU from the measured server.
	runtime.GC()
	st0, err := fetchStats(ctx, s.hc, srv.base)
	if err != nil {
		return err
	}
	disk0, err := dirBytes(s.data)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	resps := make([]response, len(reqs))
	steal := startStealMeter()
	start := time.Now()
	for i, req := range reqs {
		qctx, end := s.tr.begin(ctx, "http")
		resps[i] = ask(qctx, s.hc, srv.base, req.SQL, req.Streamed)
		end()
	}
	wall := time.Since(start)
	stolen := steal.share()
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	disk1, err := dirBytes(s.data)
	if err != nil {
		return err
	}
	st1, err := fetchStats(ctx, s.hc, srv.base)
	if err != nil {
		return err
	}
	m.storeWritten += max(disk1-disk0, 0)
	m.rcExact += st1.RCHits - st0.RCHits
	m.rcSub += st1.RCSubsumed - st0.RCSubsumed
	m.rcMiss += st1.RCMisses - st0.RCMisses
	timed0 := len(m.latencies)

	for i, r := range resps {
		req := reqs[i]
		m.attempted++
		if r.err != nil {
			m.failed++
			m.problem("%s failed: %v", req.SQL, r.err)
			continue
		}
		m.latencies = append(m.latencies, r.latency)
		m.responseBytes += r.bytes
		if req.Streamed && r.firstRow > 0 {
			m.firstRows = append(m.firstRows, r.firstRow)
		}
		m.reported++
		m.prompts += int64(r.stats.Prompts)
		m.tokens += int64(r.stats.PromptTokens)
		m.cacheHits += int64(r.stats.CacheHits)
		m.cacheMisses += int64(r.stats.CacheMisses)
		m.simLatency += time.Duration(r.stats.SimulatedLatencyMS * float64(time.Millisecond))
		subsumable := req.Kind == slotChild || req.Kind == slotLimit
		if subsumable {
			s.subsumable++
		}
		switch {
		case r.cached == wantCached[req.Kind]:
		case subsumable && r.cached == false:
			// The engine executes a query whose chosen cached relation was
			// evicted by a concurrent insert between planning and
			// execution; the answer must still match its reference.
			s.fellBack++
		default:
			m.problem("%s (%s): cached=%v, want %v", req.SQL, req.Kind, r.cached, wantCached[req.Kind])
		}
		if req.Kind == slotNovel && r.stats.Prompts == 0 {
			m.problem("%s (novel): answered without a model call", req.SQL)
		}
		s.check(req, r)
	}
	m.addPass(len(m.latencies)-timed0, wall, cpu1-cpu0, stolen)
	s.runProbe(ctx)
	if p == 0 {
		// Streamed answers must reassemble into the buffered answer.
		for i, r := range resps {
			if !reqs[i].Streamed || r.err != nil {
				continue
			}
			b := ask(ctx, s.hc, srv.base, reqs[i].SQL, false)
			if b.err != nil {
				return fmt.Errorf("buffered %q: %w", reqs[i].SQL, b.err)
			}
			if err := sameRel(reqs[i].SQL, b.rel, r.rel); err != nil {
				m.problem("%s: NDJSON differs from buffered answer: %v", reqs[i].SQL, err)
			}
		}
	}
	return nil
}
