package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
)

// minQueries is the fewest timed queries a run ends with, so that p99
// has at least ten samples beyond it.
const minQueries = 1000

// maxProblems bounds the correctness problems a run lists.
const maxProblems = 20

// measurement accumulates one run's observations. The in-process
// workloads fill it from the API and the process; serve from the
// responses, the server's /stats and /proc.
type measurement struct {
	attempted, failed int
	problems          []string
	problemCount      int

	setups    []time.Duration
	latencies []time.Duration   // every timed query, in pass order
	perQuery  [][]time.Duration // cold, prompt-hit: each list query's timed runs
	passes    []passStat
	peakRSSKB float64

	// Engine counters per successful query.
	reported        int64
	prompts, tokens int64
	cacheHits       int64
	cacheMisses     int64
	simLatency      time.Duration
	critical        time.Duration
	endpointWork    time.Duration
	modelCalls      int64

	// Go runtime, in-process workloads.
	mallocs, allocBytes uint64
	gcCycles            int64

	// Traced only.
	layerCPU       map[string]float64 // nanoseconds
	layerAllocs    map[string]float64 // objects
	parse, build   time.Duration      // per statement
	plan           time.Duration      // per statement
	physicalRows   int64
	rowsQueries    int64
	rcExact, rcSub int64
	rcMiss         int64
	rcBytes        float64
	storeLoaded    float64
	storeWritten   int64
	responseBytes  int64
	firstRows      []time.Duration
	admissionLimit float64
	maxActive      float64
}

func (m *measurement) problem(format string, args ...any) {
	m.problemCount++
	if len(m.problems) < maxProblems {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// addReport folds one in-process query's report into the counters.
func (m *measurement) addReport(rep *core.Report) {
	m.reported++
	m.prompts += int64(rep.Stats.Prompts)
	m.tokens += int64(rep.Stats.PromptTokens)
	m.cacheHits += int64(rep.Stats.CacheHits)
	m.cacheMisses += int64(rep.Stats.CacheMisses)
	m.simLatency += rep.Stats.SimulatedLatency
	if s := rep.Sched; s != nil {
		m.critical += time.Duration(s.CriticalPath)
		var busiest time.Duration
		for _, w := range s.Work {
			busiest = max(busiest, w/time.Duration(s.Workers))
		}
		m.endpointWork += busiest
	}
}

// passStat is one timed pass: its successful queries, its wall time,
// the engine process's CPU time and the host's steal share during it.
type passStat struct {
	queries   int
	wall, cpu time.Duration
	steal     float64
}

// addPass records a pass whose latencies were already appended.
func (m *measurement) addPass(queries int, wall, cpu time.Duration, steal float64) {
	m.passes = append(m.passes, passStat{queries, wall, cpu, steal})
}

// window is a run of consecutive whole passes holding at least
// minQueries timed queries, so that its p99 has ten samples beyond it.
type window struct {
	latencies []time.Duration
	wall, cpu time.Duration
	stolen    float64 // steal share times wall seconds, summed over passes
}

// windowQPS lists each window's throughput and the host's steal share
// during it, in percent, for the run summary.
func (m *measurement) windowQPS() (qps, steal []float64) {
	for _, w := range m.windows() {
		qps = append(qps, float64(len(w.latencies))/w.wall.Seconds())
		steal = append(steal, 100*w.stolen/w.wall.Seconds())
	}
	return qps, steal
}

// windows splits the run into windows; a short tail joins the last one.
func (m *measurement) windows() []window {
	var out []window
	var cur window
	next := 0
	for _, p := range m.passes {
		cur.latencies = append(cur.latencies, m.latencies[next:next+p.queries]...)
		next += p.queries
		cur.wall += p.wall
		cur.cpu += p.cpu
		cur.stolen += p.steal * p.wall.Seconds()
		if len(cur.latencies) >= minQueries {
			out = append(out, cur)
			cur = window{}
		}
	}
	if len(cur.latencies) > 0 {
		if len(out) == 0 {
			return []window{cur}
		}
		last := &out[len(out)-1]
		last.latencies = append(last.latencies, cur.latencies...)
		last.wall += cur.wall
		last.cpu += cur.cpu
		last.stolen += cur.stolen
	}
	return out
}

// percentile returns the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// medianOf returns the median of xs (0 for none).
func medianOf[T float64 | time.Duration](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd returns the metrics of an untraced run, reading the wall
// clock in ways that let interference from other guests on a shared
// host pass. Other guests take CPU time from this one ("steal") and
// contend for its caches in bursts, and a burst slows everything it
// overlaps, so every figure is a median over the run's windows (on cold
// and prompt-hit a window is one pass), which a burst over less than
// half of them does not move:
//
//   - throughput and CPU per query are the median over the windows; on
//     cold a pass's wall time includes its fresh runtime;
//   - cold and prompt-hit run the same queries every pass, so each
//     query's latency is its median over the passes, and the
//     percentiles are taken over those;
//   - serve computes the percentiles per window and reports their
//     median.
func (m *measurement) endToEnd() map[string]metric {
	var qps, cpu, p50, p99 []float64
	for _, w := range m.windows() {
		n := float64(len(w.latencies))
		slices.Sort(w.latencies)
		qps = append(qps, n/w.wall.Seconds())
		cpu = append(cpu, ms(w.cpu)/n)
		p50 = append(p50, ms(percentile(w.latencies, 0.50)))
		p99 = append(p99, ms(percentile(w.latencies, 0.99)))
	}
	if len(m.perQuery) > 0 {
		typical := m.typicalLatencies()
		p50 = []float64{ms(percentile(typical, 0.50))}
		p99 = []float64{ms(percentile(typical, 0.99))}
	}
	return map[string]metric{
		"setup_s":          {medianOf(m.setups).Seconds(), "s"},
		"queries_per_s":    {medianOf(qps), "q/s"},
		"latency_p50_ms":   {medianOf(p50), "ms"},
		"latency_p99_ms":   {medianOf(p99), "ms"},
		"cpu_ms_per_query": {medianOf(cpu), "ms"},
		"peak_rss_mb":      {m.peakRSSKB / 1024, "MB"},
	}
}

// noteRun records a timed run of list query i.
func (m *measurement) noteRun(i int, d time.Duration) {
	for len(m.perQuery) <= i {
		m.perQuery = append(m.perQuery, nil)
	}
	m.perQuery[i] = append(m.perQuery[i], d)
}

// typicalLatencies returns, sorted, each list query's median over its
// timed runs, for every query that succeeded in some pass.
func (m *measurement) typicalLatencies() []time.Duration {
	var out []time.Duration
	for _, runs := range m.perQuery {
		if len(runs) > 0 {
			out = append(out, medianOf(runs))
		}
	}
	slices.Sort(out)
	return out
}

// perLayer returns the metrics of a traced run. A layer the workload
// does not reach reads 0 (see the README for which those are).
func (m *measurement) perLayer() map[string]metric {
	n := float64(len(m.latencies))
	per := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	perReported := func(x float64) float64 {
		if m.reported == 0 {
			return 0
		}
		return x / float64(m.reported)
	}
	cpu := func(layer string) metric { return metric{per(m.layerCPU[layer]) / 1e6, "ms"} }
	allocs := func(layer string) metric { return metric{per(m.layerAllocs[layer]), "allocs"} }
	ratio := 0.0
	if m.cacheHits+m.cacheMisses > 0 {
		ratio = float64(m.cacheHits) / float64(m.cacheHits+m.cacheMisses)
	}
	rows := 0.0
	if m.rowsQueries > 0 {
		rows = float64(m.physicalRows) / float64(m.rowsQueries)
	}
	slices.Sort(m.firstRows)
	return map[string]metric{
		"sql.parse_us_per_query":             {us(m.parse), "us"},
		"logical.build_us_per_query":         {us(m.build), "us"},
		"optimizer.plan_us_per_query":        {us(m.plan), "us"},
		"physical.cpu_ms_per_query":          cpu("physical"),
		"physical.rows_per_query":            {rows, "rows"},
		"llm.cpu_ms_per_query":               cpu("llm"),
		"llm.allocs_per_query":               allocs("llm"),
		"llm.prompts_per_query":              {perReported(float64(m.prompts)), "prompts"},
		"llm.prompt_tokens_per_query":        {perReported(float64(m.tokens)), "tokens"},
		"llm.sim_critical_path_ms_per_query": {perReported(ms(m.critical)), "ms"},
		"llm.sim_endpoint_work_ms_per_query": {perReported(ms(m.endpointWork)), "ms"},
		"llm.prompt_cache_hits_per_query":    {perReported(float64(m.cacheHits)), "hits"},
		"llm.prompt_cache_hit_ratio":         {ratio, "ratio"},
		"model.cpu_ms_per_query":             cpu("model"),
		"prompt.cpu_ms_per_query":            cpu("prompt"),
		"prompt.allocs_per_query":            allocs("prompt"),
		"clean.cpu_ms_per_query":             cpu("clean"),
		"rescache.exact_hits_per_1k":         {per(float64(m.rcExact)) * 1000, "count"},
		"rescache.subsumed_hits_per_1k":      {per(float64(m.rcSub)) * 1000, "count"},
		"rescache.misses_per_1k":             {per(float64(m.rcMiss)) * 1000, "count"},
		"rescache.resident_kb":               {m.rcBytes / 1024, "KB"},
		"store.records_loaded":               {m.storeLoaded, "records"},
		"store.bytes_written_per_query":      {per(float64(m.storeWritten)), "B"},
		"serve.response_kb_per_query":        {per(float64(m.responseBytes)) / 1024, "KB"},
		"serve.first_row_ms_p50":             {ms(percentile(m.firstRows, 0.50)), "ms"},
		"serve.admission_limit":              {m.admissionLimit, "count"},
		"serve.max_active":                   {m.maxActive, "count"},
		"gc.cpu_ms_per_query":                cpu("gc"),
		"gc.cycles_per_1k_queries":           {per(float64(m.gcCycles)) * 1000, "count"},
		"allocs_per_query":                   {per(float64(m.mallocs)), "allocs"},
		"alloc_kb_per_query":                 {per(float64(m.allocBytes)) / 1024, "KB"},
		"sim_latency_ms_per_query":           {perReported(ms(m.simLatency)), "ms"},
	}
}
