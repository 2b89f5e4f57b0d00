package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
)

// span is one timed interval of the traced run. Spans of one query share
// its query span as parent (model calls find it through the context).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

type spanKey struct{}

// begin opens a span under ctx's span and returns a context carrying it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	id, end := t.open(ctx, name)
	return context.WithValue(ctx, spanKey{}, id), end
}

// leaf opens a span under ctx's span that nothing nests in.
func (t *tracer) leaf(ctx context.Context, name string) func() {
	if t == nil {
		return func() {}
	}
	_, end := t.open(ctx, name)
	return end
}

func (t *tracer) open(ctx context.Context, name string) (int64, func()) {
	id := t.next.Add(1)
	parent, _ := ctx.Value(spanKey{}).(int64)
	start := time.Since(t.t0)
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Microseconds(), End: end.Microseconds()})
		t.mu.Unlock()
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingClient is the llm.Client the benchmark hands to the engine: it
// counts every call that reaches the model and, traced, records a span
// per call under the calling query's span.
type countingClient struct {
	inner llm.Client
	tr    *tracer
	calls atomic.Int64
}

func (c *countingClient) Name() string { return c.inner.Name() }

func (c *countingClient) Complete(ctx context.Context, prompt string) (string, error) {
	c.calls.Add(1)
	defer c.tr.leaf(ctx, "model")()
	return c.inner.Complete(ctx, prompt)
}

// layerOf maps a fully qualified function name to the repo layer its
// package belongs to, or "" when the function is not repo code. The
// benchmark's own package (main) is not repo code.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, "repro/") {
		return ""
	}
	pkg := fn
	if slash := strings.LastIndex(pkg, "/"); slash >= 0 {
		if dot := strings.Index(pkg[slash:], "."); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	}
	switch pkg {
	case "repro/internal/sql/lexer", "repro/internal/sql/parser", "repro/internal/sql/token", "repro/internal/sql/ast":
		return "sql"
	case "repro/internal/simllm", "repro/internal/world":
		return "model"
	}
	return pkg[strings.LastIndex(pkg, "/")+1:]
}

// gcWorker reports whether fn is one of the runtime's background
// garbage-collection goroutines.
func gcWorker(fn string) bool {
	return fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// cpuProfiler accumulates CPU nanoseconds per layer over any number of
// profiled windows.
type cpuProfiler struct {
	buf    bytes.Buffer
	layers map[string]float64 // layer -> nanoseconds
}

func newCPUProfiler() *cpuProfiler { return &cpuProfiler{layers: map[string]float64{}} }

func (p *cpuProfiler) start() error {
	if p == nil {
		return nil
	}
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfiler) stop() error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return chargeCPUProfile(p.buf.Bytes(), p.layers)
}

// heapSnapshot is the allocation profile at one instant, keyed by stack.
type heapSnapshot map[[32]uintptr]runtime.MemProfileRecord

func takeHeapSnapshot() heapSnapshot {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	snap := make(heapSnapshot, n)
	for _, r := range recs[:n] {
		snap[r.Stack0] = r
	}
	return snap
}

// chargeAllocs charges the allocations made between two snapshots to
// the innermost repo frame of each allocating stack, scaled from the
// sampling rate to estimated counts (as pprof scales heap samples).
func chargeAllocs(before, after heapSnapshot, rate int) map[string]float64 {
	out := map[string]float64{}
	for key, r := range after {
		objs, bytes := r.AllocObjects, r.AllocBytes
		if b, ok := before[key]; ok {
			objs -= b.AllocObjects
			bytes -= b.AllocBytes
		}
		if objs <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			avg := float64(bytes) / float64(objs)
			scale = 1 / (1 - math.Exp(-avg/float64(rate)))
		}
		layer := ""
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if layer = layerOf(f.Function); layer != "" || !more {
				break
			}
		}
		if layer != "" {
			out[layer] += float64(objs) * scale
		}
	}
	return out
}

// chargeCPUProfile decodes one gzipped pprof CPU profile and adds each
// sample's CPU time to the innermost repo frame's layer. Samples with no
// repo frame that run in a GC worker are charged to "gc".
func chargeCPUProfile(data []byte, layers map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcs     = map[uint64]int64{}    // function id -> name string index
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   []struct {
			locs []uint64
			vals []int64
		}
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s struct {
				locs []uint64
				vals []int64
			}
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 0:
					s.locs = append(s.locs, v)
				case f == 1 && w == 2:
					return protoPacked(b, func(x uint64) { s.locs = append(s.locs, x) })
				case f == 2 && w == 0:
					s.vals = append(s.vals, int64(v))
				case f == 2 && w == 2:
					return protoPacked(b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fid uint64) string {
		if i := funcs[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		layer, gc := "", false
	stack:
		for _, loc := range s.locs {
			for _, fid := range locations[loc] {
				fn := name(fid)
				if layer = layerOf(fn); layer != "" {
					break stack
				}
				gc = gc || gcWorker(fn)
			}
		}
		if layer == "" && gc {
			layer = "gc"
		}
		if layer != "" {
			layers[layer] += float64(s.vals[1])
		}
	}
	return nil
}

// protoFields walks the fields of one protobuf message, handing each to
// fn with its number, wire type, varint value or length-delimited bytes.
func protoFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// protoPacked decodes a packed repeated varint field.
func protoPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
