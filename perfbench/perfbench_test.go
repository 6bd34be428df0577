package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/fastba/fastba"
	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/store"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 10}, {999, 0.99, 9}, {220, 0.9, 22}, {220, 0.99, 2}, {0, 0.5, 0},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
		if got := supported(c.n, c.q); got != (c.want >= minTail) {
			t.Errorf("supported(%d, %g) = %v", c.n, c.q, got)
		}
	}
	lat := make([]float64, 999)
	for i := range lat {
		lat[i] = float64(i)
	}
	if _, err := quantileMs("commit_p99_ms", lat, 0.99); err == nil || !strings.Contains(err.Error(), "999 samples leave 9") {
		t.Errorf("p99 of 999 samples: err = %v, want the count reported", err)
	}
	if v, err := quantileMs("commit_p90_ms", lat, 0.9); err != nil || v != 899 {
		t.Errorf("p90 of 0..998 = %v, %v; want 899", v, err)
	}
}

func TestCPUShares(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	samples := []sample{
		// The innermost module frame wins over the runtime frame below it
		// and over the outer module frames.
		{stack: []frame{
			f("runtime.mallocgc", "/go/src/runtime/malloc.go"),
			f(modulePath+"/internal/prng.(*Perm).Apply", "/src/internal/prng/perm.go"),
			f(modulePath+"/internal/sampler.(*PermQuorum).Contains", "/src/internal/sampler/sampler.go"),
			f(modulePath+"/internal/core.(*Node).onFw1", "/src/internal/core/node.go"),
		}, weight: 40},
		// Root-package frames split by file.
		{stack: []frame{f(modulePath+".(*LogClient).Append", "/src/client.go")}, weight: 10},
		{stack: []frame{f(modulePath+".(*DecisionLog).batcher", "/src/log.go")}, weight: 10},
		{stack: []frame{f(modulePath+".RunLoad.func1", "/src/load.go")}, weight: 5},
		// Internal packages without a layer of their own are other.
		{stack: []frame{f(modulePath+"/internal/intern.(*Table).ID", "/src/internal/intern/intern.go")}, weight: 5},
		// No module frame at all: runtime.
		{stack: []frame{f("runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go")}, weight: 30},
	}
	shares := cpuShares(samples)
	want := map[string]float64{"prng": 0.4, "client": 0.1, "log": 0.1, "other": 0.1, "runtime": 0.3}
	var sum float64
	for _, l := range layers {
		got, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		if math.Abs(got-want[l]) > 1e-12 {
			t.Errorf("%s share = %g, want %g", l, got, want[l])
		}
		sum += got
	}
	if len(shares) != len(layers) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("%d shares summing to %g, want %d summing to 1", len(shares), sum, len(layers))
	}
}

// spin burns CPU in a function the profile can name.
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.stack {
			found = found || (f.fn == "github.com/fastba/fastba/perfbench.spin" || f.fn == "main.spin") && strings.HasSuffix(f.file, "perfbench_test.go")
		}
	}
	if !found {
		t.Fatalf("no sample of %d names spin in perfbench_test.go", len(samples))
	}
}

func TestSubmitCountsFailures(t *testing.T) {
	var tl tally
	// A shed append is resent and, once acked, is not a failure.
	calls := 0
	seq, err := tl.submit(func() (uint64, error) {
		calls++
		if calls < 3 {
			return 0, fastba.ErrOverload
		}
		return 7, nil
	})
	if err != nil || seq != 7 {
		t.Fatalf("retried overload: seq %d, err %v", seq, err)
	}
	// A lost session is a failure and is not resent: the daemon may have
	// committed it.
	lost := 0
	if _, err := tl.submit(func() (uint64, error) {
		lost++
		return 0, fastba.ErrSessionLost
	}); !errors.Is(err, fastba.ErrSessionLost) || lost != 1 {
		t.Fatalf("lost session: err %v after %d calls", err, lost)
	}
	if a, k, f, r := tl.attempted.Load(), tl.acked.Load(), tl.failed.Load(), tl.retries.Load(); a != 2 || k != 1 || f != 1 || r != 2 {
		t.Fatalf("attempted %d acked %d failed %d retries %d, want 2 1 1 2", a, k, f, r)
	}
}

func TestGateCatchesDroppedAck(t *testing.T) {
	log := [][][]byte{{[]byte("a"), []byte("b")}, {[]byte("c")}}
	acks := []ack{{0, []byte("a")}, {0, []byte("b")}, {1, []byte("c")}}
	if err := checkAcked(log, acks); err != nil {
		t.Fatalf("intact log: %v", err)
	}
	dropped := [][][]byte{{[]byte("a")}, {[]byte("c")}}
	if err := checkAcked(dropped, acks); err == nil {
		t.Fatal("a dropped acked payload passed the gate")
	}
	moved := [][][]byte{{[]byte("a"), []byte("b")}, {}, {[]byte("c")}}
	if err := checkAcked(moved, acks); err == nil {
		t.Fatal("a payload committed at another seq than acked passed the gate")
	}
	twice := [][][]byte{{[]byte("a"), []byte("b")}, {[]byte("c"), []byte("a")}}
	if err := checkAcked(twice, acks); err == nil {
		t.Fatal("an acked payload committed twice passed the gate")
	}
}

func TestPrefixGate(t *testing.T) {
	rec := func(seq uint64, p string) store.Record {
		return store.Record{Seq: seq, Value: bitstring.New([]byte{p[0] & 1, p[0] >> 1 & 1}), Payloads: [][]byte{[]byte(p)}, Deciders: int(seq)}
	}
	lead := []store.Record{rec(0, "a"), rec(1, "b")}
	other := []store.Record{rec(0, "a"), rec(1, "b")}
	other[1].Deciders = 5 // a daemon's own observation, not compared
	if err := checkPrefixes([][]store.Record{lead, other, append(other, rec(2, "c"))}); err != nil {
		t.Fatalf("agreeing logs: %v", err)
	}
	if err := checkPrefixes([][]store.Record{lead, other[:1]}); err == nil {
		t.Fatal("a follower behind the leader's frontier passed the gate")
	}
	if err := checkPrefixes([][]store.Record{lead, {rec(0, "a"), rec(1, "x")}}); err == nil {
		t.Fatal("a diverging follower passed the gate")
	}
}

// TestMemoryCheckpoint: max_rss_mb is read at a fixed count of acked
// appends, so a run that acks more afterwards reads the same.
func TestMemoryCheckpoint(t *testing.T) {
	r := newRun(2*time.Second, 3)
	now := time.Now()
	for i := 0; i < 5; i++ {
		r.observe(uint64(i), now, now)
		if r.rssMB != 0 {
			t.Fatalf("after %d acks rssMB = %v", i+1, r.rssMB)
		}
	}
	r.observe(5, now, now)
	if r.rssMB <= 0 {
		t.Fatalf("after 6 acks rssMB = %v, want the peak read at the 6th", r.rssMB)
	}
	at := r.rssMB
	for i := 6; i < 1000; i++ {
		r.observe(uint64(i), now, now)
	}
	if r.rssMB != at {
		t.Errorf("rssMB moved from %v to %v after the checkpoint", at, r.rssMB)
	}
}

func TestLongestGap(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	acks := []time.Time{at(300), at(100), at(900), at(2000)}
	if got := longestGap(t0, at(1000), acks); got != 600*time.Millisecond {
		t.Fatalf("longest gap = %v, want 600ms", got)
	}
	if got := longestGap(t0, at(1000), nil); got != time.Second {
		t.Fatalf("gap with no acks = %v, want the window", got)
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json and the metrics
// this command prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the command", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
