// Command perfbench is the repository's real-clock benchmark. It runs
// one of three workloads against the engine's public API (cold,
// prompt-hit) or a galois-serve child process (serve), checks every
// answer against reference relations computed apart, and prints the
// run's metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced (--trace 0) it reports the end-to-end metrics; traced
// (--trace 1) the per-layer ones, measured from outside the program:
// timed calls into public functions, a counting llm.Client, the
// engine's reports and the server's /stats and /proc entries, and
// CPU and heap profiles of its own process charged to repo packages.
// Run it through run.sh, which builds it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// traceMemProfileRate is the heap-profile sampling interval of traced
// runs, in bytes: dense enough for per-layer counts over thousands of
// queries, sparse enough to keep the tracing overhead moderate.
const traceMemProfileRate = 64 << 10

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	serveBin string
	workDir  string
	refsOut  string
}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "cold, prompt-hit or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: shapes the query lists, never the model")
	flag.IntVar(&seconds, "seconds", 10, "measure whole passes until this many seconds have passed")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "galois-serve binary (serve workload)")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "directory for temporary data and traces")
	flag.StringVar(&cfg.refsOut, "refs-out", "", "internal: compute the workload's references into this file and exit")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	// Only a traced in-process run needs the heap profile; elsewhere its
	// sampling would add cost to the measured process.
	runtime.MemProfileRate = 0
	if cfg.trace && cfg.workload != "serve" {
		runtime.MemProfileRate = traceMemProfileRate
	}
	// Every workload runs on one CPU, and the engine on one P, so that
	// the wall clock reads the engine's work per query rather than how
	// the host schedules vCPUs: with a P per vCPU, cold runs and
	// prompt-hit fills on a host whose other guests took a third of the
	// CPU were up to three times slower than on a quiet one (see pin.go
	// for serve). The reference child inherits the binding.
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	switch cfg.workload {
	case "cold", "prompt-hit", "serve":
	default:
		return fmt.Errorf("unknown workload %q (want cold, prompt-hit or serve)", cfg.workload)
	}
	if cfg.refsOut != "" {
		return writeReferences(ctx, cfg)
	}
	if err := selfTest(); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	m := &measurement{}
	steal := startStealMeter()
	var summary map[string]any
	switch cfg.workload {
	case "serve":
		summary, err = runServe(ctx, cfg, runDir, tr, m)
	default:
		summary, err = runInProcess(ctx, cfg, runDir, tr, m)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		dir := filepath.Join(cfg.workDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		summary["spans"] = len(tr.spans)
		summary["spans_file"] = path
	}

	lat := m.endToEnd()
	summary["workload"] = cfg.workload
	summary["seed"] = cfg.seed
	summary["traced"] = cfg.trace
	summary["passes"] = len(m.passes)
	summary["window_qps"], summary["window_steal_pct"] = m.windowQPS()
	summary["host_steal_pct"] = steal.share() * 100
	summary["timed_queries"] = len(m.latencies)
	summary["queries_per_s"] = lat["queries_per_s"].Value
	summary["latency_p50_ms"] = lat["latency_p50_ms"].Value
	summary["problems"] = m.problemCount
	line, _ := json.Marshal(summary)
	fmt.Fprintf(os.Stderr, "perfbench summary %s\n", line)
	for _, p := range m.problems {
		fmt.Fprintln(os.Stderr, "perfbench check:", p)
	}

	metrics := lat
	if cfg.trace {
		metrics = m.perLayer()
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{m.problemCount == 0, m.attempted, m.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// referenceFile is what the reference child process hands back.
type referenceFile struct {
	Refs      map[string]digest `json:"refs"`
	CellMatch float64           `json:"cell_match_pct"`
}

// writeReferences is the child-process mode: it computes the
// in-process workloads' references, so the memory they take never
// counts toward the measured process's peak RSS.
func writeReferences(ctx context.Context, cfg config) error {
	rf, err := newReferencer(false)
	if err != nil {
		return err
	}
	var sqls []string
	for _, it := range baseList(cfg.seed) {
		sqls = append(sqls, it.SQL)
	}
	if err := rf.ensure(ctx, sqls); err != nil {
		return err
	}
	out := referenceFile{Refs: rf.refs}
	if cfg.workload == "cold" {
		if out.CellMatch, err = rf.cellMatch(ctx); err != nil {
			return err
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.refsOut, data, 0o644)
}

// loadReferences runs this binary as a reference child process and
// reads what it wrote.
func loadReferences(ctx context.Context, cfg config, runDir string) (*referenceFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(runDir, "refs.json")
	if err := runChild(ctx, self, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10), "--refs-out", path); err != nil {
		return nil, fmt.Errorf("computing references: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf referenceFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	return &rf, nil
}

// runInProcess runs cold or prompt-hit.
func runInProcess(ctx context.Context, cfg config, runDir string, tr *tracer, m *measurement) (map[string]any, error) {
	list := baseList(cfg.seed)
	rf, err := loadReferences(ctx, cfg, runDir)
	if err != nil {
		return nil, err
	}
	w := &inProcess{cfg: cfg, list: list, refs: rf.Refs, tr: tr, out: m}
	if tr != nil {
		w.prof = newCPUProfiler()
	}
	if err := w.setup(ctx); err != nil {
		return nil, err
	}
	if err := w.run(ctx); err != nil {
		return nil, err
	}
	if m.peakRSSKB, err = statusKB(os.Getpid(), "VmHWM"); err != nil {
		return nil, err
	}
	if !cfg.trace {
		if err := w.moreSetups(ctx); err != nil {
			return nil, err
		}
	}
	summary := map[string]any{
		"list_queries":     len(list),
		"list_makeup":      makeup(list),
		"model_calls":      m.modelCalls,
		"reference_count":  len(rf.Refs),
		"setup_median_s":   medianOf(m.setups).Seconds(),
		"prompts_per_pass": m.prompts / int64(max(len(m.passes), 1)),
	}
	if cfg.workload == "cold" {
		summary["cell_match_pct"] = rf.CellMatch
	}
	return summary, nil
}

// makeup counts a list's queries per class.
func makeup(list []item) map[queryClass]int {
	out := map[queryClass]int{}
	for _, it := range list {
		out[it.Class]++
	}
	return out
}

// statusKB reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status.
func statusKB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, errors.New("no " + field + " in /proc status")
}

// stealMeter measures the share of the machine's CPU time the
// hypervisor gave to other guests (steal) over an interval, from
// /proc/stat. It is reported with each run to explain wall-clock noise.
type stealMeter struct{ steal0, total0 float64 }

func readCPUTimes() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func startStealMeter() stealMeter {
	s, t := readCPUTimes()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := readCPUTimes()
	if t <= m.total0 {
		return 0
	}
	return (s - m.steal0) / (t - m.total0)
}
