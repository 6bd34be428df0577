package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one append share the
// append's root span as Parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end runs measure without tracing.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
	prof  bytes.Buffer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id returns a fresh span id (0 when tracing is off).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores one finished span.
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// durationsMs returns the durations of every span with the name.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// startProfile begins CPU profiling into the tracer's buffer.
func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	return pprof.StartCPUProfile(&t.prof)
}

// stopProfile ends CPU profiling and returns the layer shares.
func (t *tracer) stopProfile() (map[string]float64, error) {
	if t == nil {
		return nil, nil
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	return cpuShares(samples), nil
}

// write saves the spans as JSON lines and the CPU profile beside them.
func (t *tracer) write(base string) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", t.prof.Bytes(), 0o644)
}

// rtStats is a snapshot of the Go runtime's allocation and GC counters.
type rtStats struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

func readRuntime() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []runtimemetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtimemetrics.Read(s)
	return rtStats{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

// runtimeLayer reports the runtime's per-entry allocation and its GC CPU
// fraction between two snapshots.
func runtimeLayer(a, b rtStats, entries float64, out map[string]float64) {
	if entries > 0 {
		out["runtime.allocs_per_entry"] = float64(b.mallocs-a.mallocs) / entries
		out["runtime.alloc_bytes_per_entry"] = float64(b.allocBytes-a.allocBytes) / entries
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}
