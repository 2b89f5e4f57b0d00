package main

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/simllm"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

const (
	coldSetups   = 50 // fixture builds timed for cold's setup_s
	hitSetups    = 5  // fill passes timed for prompt-hit's setup_s
	hitCacheSize = 1 << 17
	planReps     = 5 // repetitions per statement when timing planning calls
)

// processCPU returns the CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// inProcess drives cold and prompt-hit through the engine's public API.
type inProcess struct {
	cfg    config
	list   []item
	refs   map[string]digest
	tr     *tracer
	prof   *cpuProfiler
	runner *bench.Runner
	client *countingClient
	rt     *core.Runtime // prompt-hit's filled runtime
	out    *measurement
}

// workloadOptions is the runtime configuration of the in-process
// workloads: engine defaults (pipelined executor) with the result cache
// off; cold also turns the prompt cache off, prompt-hit sizes it to keep
// every completion of the list.
func (w *inProcess) workloadOptions() core.Options {
	opts := core.DefaultOptions()
	opts.ResultCacheEnabled = false
	if w.cfg.workload == "cold" {
		opts.CacheEnabled = false
	} else {
		opts.CacheSize = hitCacheSize
	}
	return opts
}

// setup builds what the timed passes need and times it: cold times the
// fixture a fresh process builds before its first query (world,
// ground-truth DB, model, bound runtime); prompt-hit times the fill pass
// that warms the prompt cache of the runtime the passes replay on.
func (w *inProcess) setup(ctx context.Context) error {
	start := time.Now()
	if w.cfg.workload == "cold" {
		r, err := bench.NewRunner(modelSeed)
		if err != nil {
			return err
		}
		client := &countingClient{inner: r.Model(simllm.ChatGPT), tr: w.tr}
		if _, err := r.Runtime(client, w.workloadOptions()); err != nil {
			return err
		}
		w.out.setups = append(w.out.setups, time.Since(start))
		w.runner, w.client = r, client
		return nil
	}
	if w.runner == nil {
		r, err := bench.NewRunner(modelSeed)
		if err != nil {
			return err
		}
		w.runner = r
		start = time.Now()
	}
	client := &countingClient{inner: w.runner.Model(simllm.ChatGPT), tr: w.tr}
	rt, err := w.runner.Runtime(client, w.workloadOptions())
	if err != nil {
		return err
	}
	if err := fill(ctx, w.tr, rt.NewSession(), w.list); err != nil {
		return err
	}
	w.out.setups = append(w.out.setups, time.Since(start))
	w.rt, w.client = rt, client
	return nil
}

// moreSetups times the further set-ups whose median is setup_s. They
// run after the timed passes and after peak RSS was read, each once the
// previous one's runtime is released, so no set-up's memory counts
// toward the passes' peak.
func (w *inProcess) moreSetups(ctx context.Context) error {
	n := coldSetups
	if w.cfg.workload != "cold" {
		n = hitSetups
	}
	for len(w.out.setups) < n {
		w.rt = nil
		runtime.GC()
		if err := w.setup(ctx); err != nil {
			return err
		}
	}
	return nil
}

// fill runs the list once, plus each truncated statement without its
// LIMIT: a pipelined LIMIT stops issuing prompts at a point that depends
// on timing, so only the full statement warms every prompt it may need.
func fill(ctx context.Context, tr *tracer, sess *core.Session, list []item) error {
	for _, it := range list {
		sqls := []string{it.SQL}
		if hasLimit(it.SQL) {
			sqls = append(sqls, stripLimit(it.SQL))
		}
		for _, sql := range sqls {
			qctx, end := tr.begin(ctx, "fill")
			_, _, err := sess.Query(qctx, sql)
			end()
			if err != nil {
				return fmt.Errorf("fill %q: %w", sql, err)
			}
		}
	}
	return nil
}

// run measures whole passes over the list until the run's time is up
// and at least minQueries queries were timed.
func (w *inProcess) run(ctx context.Context) error {
	m := w.out
	opts := w.workloadOptions()
	rels := make([]*schema.Relation, len(w.list))
	reps := make([]*core.Report, len(w.list))
	var heapBefore heapSnapshot
	if w.tr != nil {
		heapBefore = takeHeapSnapshot()
	}
	var ms0, ms1 runtime.MemStats
	begin := time.Now()
	for pass := 0; ; pass++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := w.prof.start(); err != nil {
			return err
		}
		// Every pass starts from a collected heap, as serve's do.
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		calls0 := w.client.calls.Load()
		timed0 := len(m.latencies)
		cpu0 := processCPU()
		steal := startStealMeter()
		start := time.Now()
		rt := w.rt
		if w.cfg.workload == "cold" {
			var err error
			if rt, err = w.runner.Runtime(w.client, opts); err != nil {
				return err
			}
		}
		sess := rt.NewSession()
		for i, it := range w.list {
			qctx, end := w.tr.begin(ctx, "query")
			t := time.Now()
			got, rep, err := sess.Query(qctx, it.SQL)
			lat := time.Since(t)
			end()
			m.attempted++
			if err != nil {
				m.failed++
				m.problem("%s failed: %v", it.SQL, err)
				rels[i], reps[i] = nil, nil
				continue
			}
			m.latencies = append(m.latencies, lat)
			m.noteRun(i, lat)
			rels[i], reps[i] = got, rep
		}
		wall := time.Since(start)
		m.addPass(len(m.latencies)-timed0, wall, processCPU()-cpu0, steal.share())
		calls := w.client.calls.Load() - calls0
		runtime.ReadMemStats(&ms1)
		if err := w.prof.stop(); err != nil {
			return err
		}
		m.mallocs += ms1.Mallocs - ms0.Mallocs
		m.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		m.gcCycles += int64(ms1.NumGC - ms0.NumGC)
		m.modelCalls += calls

		// Checks, untimed.
		var prompts int64
		for i, it := range w.list {
			if rels[i] == nil {
				continue
			}
			if err := checkRel(it.SQL, w.refs[it.SQL], canon(rels[i])); err != nil {
				m.problem("%s: %v", it.SQL, err)
			}
			m.addReport(reps[i])
			prompts += int64(reps[i].Stats.Prompts)
		}
		if w.cfg.workload == "cold" {
			if err := checkColdCalls(calls, prompts); err != nil {
				m.problem("pass %d: %v", pass, err)
			}
		} else if err := checkHitCalls(calls); err != nil {
			m.problem("pass %d: %v", pass, err)
		}
		if time.Since(begin) >= w.cfg.seconds && len(m.latencies) >= minQueries {
			break
		}
	}
	if w.tr != nil {
		after := takeHeapSnapshot()
		m.layerAllocs = chargeAllocs(heapBefore, after, runtime.MemProfileRate)
		if w.prof != nil {
			m.layerCPU = w.prof.layers
		}
		return w.tracePlanning(ctx)
	}
	return nil
}

var actualRows = regexp.MustCompile(`\[actual rows=(\d+)`)

// tracePlanning times the planning calls per statement from outside
// the engine (parse, build plus the cache key material, the optimizer
// as Explain minus the two), and sums the rows the physical operators
// produced from EXPLAIN ANALYZE's per-node actuals.
func (w *inProcess) tracePlanning(ctx context.Context) error {
	rt := w.rt
	if rt == nil {
		var err error
		if rt, err = w.runner.Runtime(w.client, w.workloadOptions()); err != nil {
			return err
		}
	}
	sess := rt.NewSession()
	sqls := make([]string, len(w.list))
	for i, it := range w.list {
		sqls[i] = it.SQL
	}
	if err := timePlanning(ctx, w.tr, sess, sqls, w.out); err != nil {
		return err
	}
	for _, sql := range sqls {
		qctx, end := w.tr.begin(ctx, "analyze")
		got, _, err := sess.Query(qctx, "EXPLAIN ANALYZE "+sql)
		end()
		if err != nil {
			return fmt.Errorf("EXPLAIN ANALYZE %q: %w", sql, err)
		}
		for _, row := range got.Rows {
			for _, m := range actualRows.FindAllStringSubmatch(row[0].String(), -1) {
				n, _ := strconv.Atoi(m[1])
				w.out.physicalRows += int64(n)
			}
		}
	}
	w.out.rowsQueries = int64(len(sqls))
	return nil
}

// timePlanning times parser.Parse, logical.Build (with the fingerprint
// and shape that key the result cache) and Session.Explain on each
// statement, planReps times, keeps each call's fastest time (the least
// disturbed by other work on the machine) and records the means over
// the statements; the optimizer's share is Explain minus the other two.
func timePlanning(ctx context.Context, tr *tracer, sess *core.Session, sqls []string, m *measurement) error {
	var parse, build, plan time.Duration
	for _, sql := range sqls {
		var p, b, e time.Duration
		for r := 0; r < planReps; r++ {
			t := time.Now()
			stmt, err := parser.Parse(sql)
			p = fastest(p, time.Since(t))
			if err != nil {
				return fmt.Errorf("parse %q: %w", sql, err)
			}
			sel, ok := stmt.(*ast.Select)
			if !ok {
				return fmt.Errorf("%q is not a SELECT", sql)
			}
			t = time.Now()
			_, err = inspectSelect(sess, sel)
			b = fastest(b, time.Since(t))
			if err != nil {
				return err
			}
			end := tr.leaf(ctx, "plan")
			t = time.Now()
			_, err = sess.Explain(sql)
			e = fastest(e, time.Since(t))
			end()
			if err != nil {
				return fmt.Errorf("explain %q: %w", sql, err)
			}
		}
		parse += p
		build += b
		plan += max(e-p-b, 0)
	}
	n := time.Duration(len(sqls))
	m.parse, m.build, m.plan = parse/n, build/n, plan/n
	return nil
}

// fastest returns the smaller of a running minimum (0 = none yet) and d.
func fastest(best, d time.Duration) time.Duration {
	if best == 0 || d < best {
		return d
	}
	return best
}
