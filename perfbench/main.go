// Command perfbench is the repository's benchmark of the append path.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It runs one named workload against the system through its public entry
// points, checks that every acknowledged append was committed correctly,
// prints a table of every metric with its unit and sample count, and ends
// its output with one JSON line. With --trace 0 that line carries the
// end-to-end metrics of an untraced run. With --trace 1 the workload runs
// twice, untraced and then traced, and the line carries the per-layer
// metrics of the traced run plus the tracing overhead on each end-to-end
// metric. Any correctness violation exits nonzero.
//
// Workloads (the comment on each one's function says why it exists):
//
//	fabric-log     in-process decision log on the fabric runtime, n=24
//	daemon-steady  4 in-process balogd daemons × k=2, closed-loop SDK load
//	daemon-kill    the same cluster at a fixed open-loop rate, follower 3
//	               killed at 1/3 of the run and rebuilt at 2/3
//
// Nothing is injected between nodes: daemons talk over loopback sockets,
// so latency is processor, scheduler and fsync time only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workDir holds everything a run writes (stores, spans, profiles),
// relative to the directory the benchmark runs in.
const workDir = ".bench_build/perfbench"

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
const setupRounds = 9

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(seed uint64, window time.Duration, tr *tracer) (*run, error){
	"fabric-log":    runFabricLog,
	"daemon-steady": runDaemonSteady,
	"daemon-kill":   runDaemonKill,
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the log sees, reported untraced.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"acked_per_s", "1/s"},
	{"entries_per_s", "1/s"},
	{"commit_p50_ms", "ms"},
	{"commit_p90_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Each workload fills the ones its
// layers produce; the rest read 0 (a bypassed layer).
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, l := range layers {
		out = append(out, metricSpec{l + ".cpu_share", "frac"})
	}
	out = append(out,
		metricSpec{"core.msgs_per_entry", "count"},
		metricSpec{"core.bytes_per_entry", "B"},
	)
	for _, k := range coreKinds {
		out = append(out, metricSpec{"core.msgs_per_entry." + k, "count"})
	}
	out = append(out,
		metricSpec{"netrun.msgs_per_entry", "count"},
		metricSpec{"netrun.frames_per_entry", "count"},
		metricSpec{"netrun.msgs_per_frame", "count"},
		metricSpec{"server.payloads_per_entry", "count"},
		metricSpec{"log.payloads_per_entry", "count"},
		metricSpec{"server.commit_mean_ms", "ms"},
		metricSpec{"client.append_mean_ms", "ms"},
		metricSpec{"store.wal_bytes_per_entry", "B"},
		metricSpec{"log.propose_wait_p99_ms", "ms"},
		metricSpec{"server.reproposals", "count"},
		metricSpec{"server.repaired", "count"},
		metricSpec{"netrun.redials", "count"},
		metricSpec{"netrun.suspects", "count"},
		metricSpec{"netrun.dropped_down", "count"},
		metricSpec{"server.shed", "count"},
		metricSpec{"client.overload_retries", "count"},
		metricSpec{"server.restart_s", "s"},
		metricSpec{"server.catchup_s", "s"},
		metricSpec{"runtime.allocs_per_entry", "count"},
		metricSpec{"runtime.alloc_bytes_per_entry", "B"},
		metricSpec{"runtime.gc_cpu_frac", "frac"},
		metricSpec{"bench.gen_lag_p99_ms", "ms"},
		metricSpec{"outage_s", "s"},
	)
	for _, m := range endToEnd {
		out = append(out, metricSpec{"trace.overhead." + m.name, "frac"})
	}
	return out
}()

// period is the unit a run's window is split into: each end-to-end
// metric is taken per period and the median period is reported, so one
// hiccup or one unlucky fault moves a run's figure less. daemon-kill's
// fault schedule repeats once per period.
const period = 10 * time.Second

// run is what one pass of a workload measured.
type run struct {
	setups []float64 // seconds from workload start to the first ack, per round
	t0     time.Time // start of the timed phase
	window time.Duration

	mu    sync.Mutex
	sent  []time.Time // when each acked append of the timed phase was issued (or due)
	lat   []float64   // its latency in ms
	ackAt []time.Time // when its ack arrived
	seqs  map[uint64]bool

	// marks[k] is the committed frontier at the end of period k-1
	// (marks[0]: at the start of the window).
	marks []atomic.Uint64
	tally tally
	layer map[string]float64

	rssAt int     // acked appends of the timed phase after which max_rss_mb is read
	rssMB float64 // the process's peak resident set at that point
}

// newRun starts a pass whose window is window long. max_rss_mb is read
// once the timed phase has acked memRate appends per second of window:
// the logs live in memory and grow with every entry, so a peak taken at
// the end of a fixed window would rise with throughput, and a faster
// program or host would read as a memory regression.
func newRun(window time.Duration, memRate int) *run {
	return &run{window: window, seqs: map[uint64]bool{}, layer: map[string]float64{},
		rssAt: max(1, memRate*int(window/time.Second))}
}

// periods returns how many periods the window holds and their length.
func (r *run) periods() (int, time.Duration) {
	k := max(1, int(r.window/period))
	return k, r.window / time.Duration(k)
}

// startWindow opens the timed phase and samples the committed frontier
// at its start and at every period's end; the returned func waits until
// the last sample is taken.
func (r *run) startWindow(frontier func() uint64) (wait func()) {
	r.t0 = time.Now()
	k, p := r.periods()
	r.marks = make([]atomic.Uint64, k+1)
	r.marks[0].Store(frontier())
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 1; i <= k; i++ {
		i := i
		time.AfterFunc(time.Until(r.t0.Add(time.Duration(i)*p)), func() {
			r.marks[i].Store(frontier())
			wg.Done()
		})
	}
	return wg.Wait
}

// observe records one acked append of the timed phase.
func (r *run) observe(seq uint64, start, end time.Time) {
	r.mu.Lock()
	r.sent = append(r.sent, start)
	r.lat = append(r.lat, float64(end.Sub(start))/float64(time.Millisecond))
	r.ackAt = append(r.ackAt, end)
	r.seqs[seq] = true
	if len(r.lat) == r.rssAt {
		r.rssMB = maxRSSMB()
	}
	r.mu.Unlock()
}

// metric is one reported value.
type metric struct {
	metricSpec
	value   float64
	samples int
	note    string
}

// percentiles are the commit-latency percentiles reported, in the order
// of their metrics in endToEnd.
var percentiles = []float64{0.5, 0.9, 0.99}

// endToEndMetrics derives the user-visible metrics of a pass: rates from
// the acks and commits inside each period, latencies from the appends
// issued in it, each reported as the median over periods.
func (r *run) endToEndMetrics() ([]metric, error) {
	k, p := r.periods()
	per := make([][]float64, 2+len(percentiles)) // acked/s, entries/s, then each percentile, per period
	fewest := make([]int, len(percentiles))      // fewest samples beyond each percentile in a period
	acks := 0
	for j := 0; j < k; j++ {
		from, to := r.t0.Add(time.Duration(j)*p), r.t0.Add(time.Duration(j+1)*p)
		acked := 0
		var lat []float64
		for i, t := range r.ackAt {
			if !t.Before(from) && t.Before(to) {
				acked++
			}
			if !r.sent[i].Before(from) && r.sent[i].Before(to) {
				lat = append(lat, r.lat[i])
			}
		}
		acks += acked
		per[0] = append(per[0], float64(acked)/p.Seconds())
		per[1] = append(per[1], float64(r.marks[j+1].Load()-r.marks[j].Load())/p.Seconds())
		for i, q := range percentiles {
			v, err := quantileMs(fmt.Sprintf("%s in period %d", endToEnd[3+i].name, j), lat, q)
			if err != nil {
				return nil, err
			}
			per[2+i] = append(per[2+i], v)
			if b := beyond(len(lat), q); j == 0 || b < fewest[i] {
				fewest[i] = b
			}
		}
	}
	note := fmt.Sprintf("median of %d periods", k)
	out := []metric{
		{metricSpec: endToEnd[0], value: median(r.setups), samples: len(r.setups), note: "median of set-up rounds"},
		{metricSpec: endToEnd[1], value: median(per[0]), samples: acks, note: note},
		{metricSpec: endToEnd[2], value: median(per[1]), samples: int(r.marks[k].Load() - r.marks[0].Load()), note: note},
	}
	for i := range percentiles {
		out = append(out, metric{metricSpec: endToEnd[3+i], value: median(per[2+i]), samples: len(r.lat),
			note: fmt.Sprintf("%s; at least %d samples beyond in each; %d distinct commits", note, fewest[i], len(r.seqs))})
	}
	if len(r.lat) < r.rssAt {
		return nil, fmt.Errorf("%s is read after %d acked appends and the timed phase acked %d", endToEnd[6].name, r.rssAt, len(r.lat))
	}
	out = append(out, metric{metricSpec: endToEnd[6], value: r.rssMB, samples: r.rssAt,
		note: "peak resident set of this process once the timed phase had acked that many appends"})
	for _, m := range out {
		if m.value <= 0 || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("%s measured %v; an end-to-end metric must be a positive number", m.name, m.value)
		}
	}
	return out, nil
}

// outage is the longest gap between acks inside the window. It is
// printed with the end-to-end metrics but reported among the per-layer
// ones: without a fault it is the run's longest GC or fsync hiccup, an
// extreme value that varies by half between runs.
func (r *run) outage() metric {
	n := len(r.ackAt)
	return metric{metricSpec: metricSpec{"outage_s", "s"}, value: longestGap(r.t0, r.t0.Add(r.window), r.ackAt).Seconds(),
		samples: n, note: "longest gap between acks"}
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is the last line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	)
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	window := time.Duration(*seconds) * time.Second
	fmt.Printf("workload %s  seed %d  seconds %d  trace %d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("host %s  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		hostname(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	plain, err := drive(*seed, window, nil)
	if err != nil {
		return err
	}
	e2e, err := plain.endToEndMetrics()
	if err != nil {
		return err
	}
	printTable("end to end, untraced", append(e2e, plain.outage()))
	res := result{Attempted: plain.tally.attempted.Load(), Failed: plain.tally.failed.Load(), Metrics: map[string]jsonMetric{}}
	fmt.Printf("failed_frac %g  (%d failed of %d attempted; %d overload resends)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, plain.tally.retries.Load())

	if *trace == 0 {
		for _, m := range e2e {
			res.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	} else {
		tr := newTracer()
		traced, err := drive(*seed, window, tr)
		if err != nil {
			return err
		}
		te2e, err := traced.endToEndMetrics()
		if err != nil {
			return err
		}
		printTable("end to end, traced", append(te2e, traced.outage()))
		traced.layer["outage_s"] = traced.outage().value
		for i, m := range te2e {
			traced.layer["trace.overhead."+m.name] = m.value/e2e[i].value - 1
		}
		layer := make([]metric, 0, len(perLayer))
		for _, spec := range perLayer {
			v := traced.layer[spec.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s measured %v", spec.name, v)
			}
			layer = append(layer, metric{metricSpec: spec, value: v})
			res.Metrics[spec.name] = jsonMetric{v, spec.unit}
		}
		printTable("per layer, traced", layer)
		base := filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d", *name, *seed))
		if err := tr.write(base); err != nil {
			return err
		}
		fmt.Printf("spans and CPU profile: %s.{spans.jsonl,cpu.pprof}\n", base)
		res.Attempted += traced.tally.attempted.Load()
		res.Failed += traced.tally.failed.Load()
	}
	// Every workload returns an error on a correctness violation, so a
	// result reaching this point passed the gate.
	res.Correct = true
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printTable(title string, ms []metric) {
	fmt.Printf("-- %s\n", title)
	for _, m := range ms {
		fmt.Printf("%-34s %14.6g %-6s", m.name, m.value, m.unit)
		if m.samples > 0 {
			fmt.Printf(" n=%d", m.samples)
		}
		if m.note != "" {
			fmt.Printf("  (%s)", m.note)
		}
		fmt.Println()
	}
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

// commit is the VCS revision the binary was built from, when the build
// had one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
