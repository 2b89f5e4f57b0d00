package main

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"repro/internal/sql/parser"
)

// The benchmark runs selfTest before every run; this keeps it honest
// under go test too.
func TestSelfTestCatchesCorruptionAndExtraCalls(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/physical.(*llmFetchAttrOp).Next":   "physical",
		"repro/internal/sql/parser.(*Parser).parseExpr":    "sql",
		"repro/internal/simllm.(*Model).Complete":          "model",
		"repro/internal/world.(*World).Fact":               "model",
		"repro/internal/llm.CountTokens":                   "llm",
		"repro/internal/llm.(*Scheduler).Submit.func1":     "llm",
		"main.(*countingClient).Complete":                  "",
		"runtime.mallocgc":                                 "",
		"repro/internal/rescache.(*Cache).Fetch[...]":      "rescache",
		"repro/internal/core.(*Session).runSelect.func1.1": "core",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A real CPU profile of parsing must be charged to the sql layer.
func TestChargeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		if _, err := parser.Parse("SELECT c.name, m.age FROM city c, mayor m WHERE c.mayor = m.name AND c.population > 1000000 ORDER BY c.name LIMIT 3"); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	layers := map[string]float64{}
	if err := chargeCPUProfile(buf.Bytes(), layers); err != nil {
		t.Fatal(err)
	}
	if layers["sql"] < float64(50*time.Millisecond) {
		t.Fatalf("sql layer charged %v of ~300ms parsing; layers %v", time.Duration(layers["sql"]), layers)
	}
}

func TestWindowsHoldWholePasses(t *testing.T) {
	m := &measurement{}
	for i, n := range []int{600, 600, 600, 100} {
		for j := 0; j < n; j++ {
			m.latencies = append(m.latencies, time.Duration(i+1)*time.Millisecond)
		}
		m.addPass(n, time.Second, time.Second, 0)
	}
	ws := m.windows()
	if len(ws) != 1 || len(ws[0].latencies) != 1900 || ws[0].wall != 4*time.Second {
		t.Fatalf("got %d windows, first has %d latencies", len(ws), len(ws[0].latencies))
	}
	m.addPass(600, time.Second, time.Second, 0)
	for j := 0; j < 600; j++ {
		m.latencies = append(m.latencies, time.Millisecond)
	}
	if ws := m.windows(); len(ws) != 2 || len(ws[0].latencies) != 1200 || len(ws[1].latencies) != 1300 {
		t.Fatalf("windows not split at whole passes: %d", len(ws))
	}
}

// The end-to-end figures are medians over the run's windows: a burst
// of interference over fewer than half of them must not move them.
func TestEndToEndTakesMedians(t *testing.T) {
	m := &measurement{}
	for _, slow := range []bool{false, true, false} {
		lat := time.Millisecond
		if slow {
			lat = 5 * time.Millisecond
		}
		for j := 0; j < 1000; j++ {
			m.latencies = append(m.latencies, lat)
		}
		m.addPass(1000, time.Duration(1000)*lat, time.Second, 0)
	}
	got := m.endToEnd()
	if qps := got["queries_per_s"].Value; qps != 1000 {
		t.Fatalf("queries_per_s = %v, want 1000 from the two unslowed windows", qps)
	}
	if p99 := got["latency_p99_ms"].Value; p99 != 1 {
		t.Fatalf("latency_p99_ms = %v, want 1", p99)
	}
	for i, d := range []time.Duration{1, 5, 1} {
		m.noteRun(0, d*time.Millisecond)
		m.noteRun(1, time.Duration(i+2)*time.Millisecond)
	}
	if got := m.typicalLatencies(); !slices.Equal(got, []time.Duration{time.Millisecond, 3 * time.Millisecond}) {
		t.Fatalf("typicalLatencies = %v, want each query's median run", got)
	}
}
