package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/fastba/fastba"
	"github.com/fastba/fastba/internal/metrics"
	"github.com/fastba/fastba/internal/server"
	"github.com/fastba/fastba/internal/store"
	"github.com/fastba/fastba/internal/wire"
)

// The daemon workloads host a balogd cluster in this process: every
// daemon is a server.Daemon with its own WAL directory, and daemons,
// sessions and peers talk over real loopback sockets. One process gives
// one CPU profile that covers every layer.
const (
	daemons    = 4
	perDaemon  = 2 // k: protocol nodes per daemon, so n = 8
	killTarget = 3 // a follower; daemon 0 leads
	sessions   = 2 // SDK sessions, at most nproc on the reference host
	inflight   = 8 // closed-loop appends each session keeps in flight
	// killRate is daemon-kill's offered load in appends per second over
	// all sessions: about 40% of daemon-steady's capacity on a 2-CPU host.
	killRate = 300
	// daemonMemRate paces the memory checkpoint (see newRun): below
	// daemon-kill's offered rate and a third of daemon-steady's slowest
	// acked rate seen on a 2-CPU host.
	daemonMemRate = 200
	// portSpan is one daemon's port block: k mesh listeners, catch-up,
	// client/admin and metrics.
	portSpan = perDaemon + 3
	// Port blocks are drawn below the kernel's usual ephemeral range
	// (32768 and up), so outgoing connections never take a port a daemon
	// is about to bind or re-bind.
	portLow, portHigh = 20000, 32000
	bootAttempts      = 8
	restartTimeout    = 10 * time.Second
	convergeTimeout   = 30 * time.Second
	shutdownTimeout   = 20 * time.Second
)

// cluster is one in-process balogd cluster.
type cluster struct {
	seed  uint64
	dir   string
	addrs []string
	ds    []*server.Daemon
	// regs holds every incarnation's metric registry per daemon: a
	// rebuilt daemon starts a fresh one and the dead one keeps its counts.
	regs [][]*metrics.Registry
}

func (c *cluster) storeDir(i int) string { return filepath.Join(c.dir, fmt.Sprintf("d%d", i)) }

// config is daemon i's configuration: balogd's defaults, with a fresh
// registry for this incarnation.
func (c *cluster) config(i int) server.Config {
	reg := metrics.NewRegistry()
	c.regs[i] = append(c.regs[i], reg)
	return server.Config{
		ClusterAddrs:    c.addrs,
		Daemon:          i,
		PerDaemon:       perDaemon,
		Seed:            c.seed,
		Epoch:           1,
		StoreDir:        c.storeDir(i),
		Depth:           4,
		BatchMax:        16,
		QueueMax:        64,
		SyncWindow:      2 * time.Millisecond,
		InstanceTimeout: 30 * time.Second,
		ReproposeAfter:  2 * time.Second,
		Registry:        reg,
	}
}

// bootCluster probes a free port block and starts every daemon on it,
// moving to another block when a bind loses a race.
func bootCluster(seed uint64, dir string) (*cluster, error) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var last error
	for attempt := 0; attempt < bootAttempts; attempt++ {
		base, ok := probePorts(rng)
		if !ok {
			last = errors.New("no free port block")
			continue
		}
		c := &cluster{seed: seed, dir: filepath.Join(dir, fmt.Sprintf("cluster-%d", attempt)),
			ds: make([]*server.Daemon, daemons), regs: make([][]*metrics.Registry, daemons)}
		for i := 0; i < daemons; i++ {
			c.addrs = append(c.addrs, net.JoinHostPort("127.0.0.1", strconv.Itoa(base+i*portSpan)))
		}
		last = nil
		for i := 0; i < daemons && last == nil; i++ {
			c.ds[i], last = server.New(c.config(i))
		}
		if last == nil {
			for _, d := range c.ds {
				d.Start()
			}
			return c, nil
		}
		for _, d := range c.ds {
			if d != nil {
				d.Kill()
			}
		}
		if !errors.Is(last, syscall.EADDRINUSE) {
			return nil, last
		}
	}
	return nil, fmt.Errorf("boot cluster: %w", last)
}

// probePorts finds a base port whose whole cluster block binds now.
func probePorts(rng *rand.Rand) (int, bool) {
	span := daemons * portSpan
	for try := 0; try < 64; try++ {
		base := portLow + rng.Intn(portHigh-portLow-span)
		var lns []net.Listener
		free := true
		for p := base; p < base+span && free; p++ {
			ln, err := net.Listen("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(p)))
			if err != nil {
				free = false
				break
			}
			lns = append(lns, ln)
		}
		for _, ln := range lns {
			ln.Close()
		}
		if free {
			return base, true
		}
	}
	return 0, false
}

// restart rebuilds daemon i on its store and its own port block,
// retrying while the block is still held, and returns how long New and
// Start took.
func (c *cluster) restart(i int) (time.Duration, error) {
	start := time.Now()
	for {
		d, err := server.New(c.config(i))
		if err == nil {
			d.Start()
			c.ds[i] = d
			return time.Since(start), nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) || time.Since(start) > restartTimeout {
			return 0, fmt.Errorf("restart daemon %d: %w", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// converge waits until every daemon's committed frontier equals the
// leader's.
func (c *cluster) converge() error {
	deadline := time.Now().Add(convergeTimeout)
	for {
		lead := c.ds[0].Frontier()
		same := true
		for _, d := range c.ds[1:] {
			same = same && d.Frontier() == lead
		}
		if same && lead == c.ds[0].Frontier() {
			return nil
		}
		if time.Now().After(deadline) {
			fr := make([]uint64, len(c.ds))
			for i, d := range c.ds {
				fr[i] = d.Frontier()
			}
			return fmt.Errorf("daemons did not converge within %v: frontiers %v", convergeTimeout, fr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shutdown drains every daemon gracefully, concurrently.
func (c *cluster) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	errs := make([]error, len(c.ds))
	var wg sync.WaitGroup
	for i, d := range c.ds {
		wg.Add(1)
		go func(i int, d *server.Daemon) {
			defer wg.Done()
			if err := d.Shutdown(ctx); err != nil {
				errs[i] = fmt.Errorf("shutdown daemon %d: %w", i, err)
			}
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// scrape sums each metric family over the registries (histograms appear
// as their _sum and _count series).
func scrape(regs ...*metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	var buf bytes.Buffer
	for _, reg := range regs {
		buf.Reset()
		if err := reg.WritePrometheus(&buf); err != nil {
			continue
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			fields := strings.Fields(line)
			if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
				out[name] += v
			}
		}
	}
	return out
}

// snapshot reads the leader's registries and every daemon's.
func (c *cluster) snapshot() (leader, all map[string]float64) {
	var every []*metrics.Registry
	for _, rs := range c.regs {
		every = append(every, rs...)
	}
	return scrape(c.regs[0]...), scrape(every...)
}

// canonical encodes the content every daemon must agree on for one
// record: seq, decided value and payloads. The decider counts and
// timestamps are each daemon's own observations and may differ.
func canonical(r store.Record) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, r.Seq)
	buf = wire.AppendBitString(buf, r.Value)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Payloads)))
	for _, p := range r.Payloads {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// walFrameOverhead is the store's per-record frame header: length and
// CRC32.
const walFrameOverhead = 8

// gateWALs is the daemon half of the correctness gate, run on the stores
// after shutdown: the leader's log passes the log oracles, every daemon
// holds a byte-identical prefix up to the leader's frontier, and every
// acked payload is in it exactly once at its acked seq. It returns the
// leader's records.
func gateWALs(c *cluster, acks []ack) ([]store.Record, error) {
	logs := make([][]store.Record, daemons)
	for i := range logs {
		st, err := store.Open(c.storeDir(i), store.Options{})
		if err != nil {
			return nil, fmt.Errorf("reopen store of daemon %d: %w", i, err)
		}
		logs[i] = st.Records()
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	lead := logs[0]
	entries := make([]fastba.LogEntry, len(lead))
	payloads := make([][][]byte, len(lead))
	for i, r := range lead {
		entries[i] = fastba.LogEntry{
			Seq: r.Seq, Value: hex.EncodeToString(r.Value.Bytes()),
			Payloads: r.Payloads, PayloadCount: len(r.Payloads),
			Deciders: r.Deciders, Correct: r.Correct, DistinctValues: r.DistinctValues,
			CertDeficits: r.CertDeficits, MatchesProposal: r.MatchesProposal,
		}
		payloads[i] = r.Payloads
	}
	if rep := fastba.CheckLogInvariants(entries, 1); !rep.OK() {
		return nil, fmt.Errorf("leader log oracles: %s", strings.Join(rep.Strings(), "; "))
	}
	if err := checkPrefixes(logs); err != nil {
		return nil, err
	}
	if err := checkAcked(payloads, acks); err != nil {
		return nil, err
	}
	return lead, nil
}

// checkPrefixes requires every log to hold the leader's (logs[0]) whole
// log as a canonically byte-identical prefix.
func checkPrefixes(logs [][]store.Record) error {
	for i, l := range logs[1:] {
		if len(l) < len(logs[0]) {
			return fmt.Errorf("daemon %d holds %d entries, the leader %d", i+1, len(l), len(logs[0]))
		}
		for s, r := range logs[0] {
			if !bytes.Equal(canonical(r), canonical(l[s])) {
				return fmt.Errorf("daemon %d diverges from the leader at seq %d", i+1, s)
			}
		}
	}
	return nil
}

// session is one SDK session with its own payload stream.
type session struct {
	lc  *fastba.LogClient
	src *payloadSource
	mu  sync.Mutex
}

func (s *session) next() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.next()
}

// daemonRun is one cluster's life: boot to first ack, timed drive,
// drain, gate.
type daemonRun struct {
	c        *cluster
	sessions []*session
	acks     []ack
	ackMu    sync.Mutex
}

func (dr *daemonRun) addAck(a ack) {
	dr.ackMu.Lock()
	dr.acks = append(dr.acks, a)
	dr.ackMu.Unlock()
}

// bootToFirstAck starts a cluster, dials the sessions and waits for one
// acked append.
func bootToFirstAck(ctx context.Context, seed uint64, dir string, round int) (*daemonRun, time.Duration, error) {
	start := time.Now()
	c, err := bootCluster(seed, dir)
	if err != nil {
		return nil, 0, err
	}
	dr := &daemonRun{c: c}
	for s := 0; s < sessions; s++ {
		lc, err := fastba.DialLog(ctx, fastba.ClientConfig{Addr: c.ds[0].ClientAddr()})
		if err != nil {
			dr.abandon()
			return nil, 0, err
		}
		dr.sessions = append(dr.sessions, &session{lc: lc, src: newPayloads(seed, uint32(round*100+s))})
	}
	p := dr.sessions[0].next()
	seq, err := dr.sessions[0].lc.Append(ctx, p)
	if err != nil {
		dr.abandon()
		return nil, 0, fmt.Errorf("first append: %w", err)
	}
	dr.addAck(ack{seq, p})
	return dr, time.Since(start), nil
}

// abandon tears a cluster down after a harness error.
func (dr *daemonRun) abandon() {
	for _, s := range dr.sessions {
		s.lc.Close()
	}
	for _, d := range dr.c.ds {
		d.Kill()
	}
}

// finish drains the cluster and runs the correctness gate.
func (dr *daemonRun) finish() ([]store.Record, error) {
	if err := dr.c.converge(); err != nil {
		dr.abandon()
		return nil, err
	}
	for _, s := range dr.sessions {
		s.lc.Close()
	}
	if err := dr.c.shutdown(); err != nil {
		return nil, err
	}
	return gateWALs(dr.c, dr.acks)
}

// driveFunc runs the timed phase against a booted cluster.
type driveFunc func(ctx context.Context, dr *daemonRun, r *run, tr *tracer) error

// daemon-steady: the deployed append path (SDK, admission and batching,
// netrun links, wire codec, WAL fsync) at a population where the protocol
// core is a minority of the CPU. Transport, store and server changes show
// here; a sampler change should move it far less than fabric-log.
func runDaemonSteady(seed uint64, window time.Duration, tr *tracer) (*run, error) {
	return runDaemon(seed, window, tr, driveClosed)
}

// daemon-kill: the same layers used differently. Failure detection,
// redial, reproposal, WAL recovery, catch-up reads beside writes and the
// admission queue under backlog. A steady-state gain that costs recovery
// shows here.
func runDaemonKill(seed uint64, window time.Duration, tr *tracer) (*run, error) {
	return runDaemon(seed, window, tr, driveKill)
}

func runDaemon(seed uint64, window time.Duration, tr *tracer, drive driveFunc) (*run, error) {
	r := newRun(window, daemonMemRate)
	ctx, cancel := context.WithTimeout(context.Background(), window+drainTimeout)
	defer cancel()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "daemons-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var dr *daemonRun
	for round := 0; round < setupRounds; round++ {
		if dr != nil {
			if _, err := dr.finish(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if dr, took, err = bootToFirstAck(ctx, seed, filepath.Join(dir, fmt.Sprintf("round-%d", round)), round); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, took.Seconds())
	}

	c := dr.c
	lead0, all0 := c.snapshot()
	rt0 := readRuntime()
	if err := tr.startProfile(); err != nil {
		dr.abandon()
		return nil, err
	}
	marked := r.startWindow(c.ds[0].Frontier)
	f0 := r.marks[0].Load()
	retries0 := r.tally.retries.Load()

	driveErr := drive(ctx, dr, r, tr)
	marked()
	drained := c.ds[0].Frontier()
	rt1 := readRuntime()
	shares, err := tr.stopProfile()
	if driveErr != nil || err != nil {
		dr.abandon()
		return nil, errors.Join(driveErr, err)
	}
	lead1, all1 := c.snapshot()
	records, err := dr.finish()
	if err != nil {
		return nil, err
	}
	if f := r.tally.failed.Load(); f > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d appends failed\n", f)
	}
	if tr == nil {
		return r, nil
	}

	for k, v := range shares {
		r.layer[k+".cpu_share"] = v
	}
	entries := float64(drained - f0)
	delta := func(m0, m1 map[string]float64, name string) float64 { return m1[name] - m0[name] }
	msgs := delta(all0, all1, "fastba_net_messages_sent_total")
	frames := delta(all0, all1, "fastba_net_frames_sent_total")
	r.layer["netrun.msgs_per_entry"] = msgs / entries
	r.layer["netrun.frames_per_entry"] = frames / entries
	if frames > 0 {
		r.layer["netrun.msgs_per_frame"] = msgs / frames
	}
	r.layer["server.payloads_per_entry"] = delta(lead0, lead1, "fastba_appends_total") / delta(lead0, lead1, "fastba_commits_total")
	if n := delta(lead0, lead1, "fastba_commit_latency_seconds_count"); n > 0 {
		r.layer["server.commit_mean_ms"] = 1e3 * delta(lead0, lead1, "fastba_commit_latency_seconds_sum") / n
	}
	r.layer["client.append_mean_ms"] = metrics.Mean(tr.durationsMs("client.append"))
	var walBytes int
	for _, rec := range records[f0:drained] {
		walBytes += len(store.AppendRecord(nil, rec)) + walFrameOverhead
	}
	r.layer["store.wal_bytes_per_entry"] = float64(walBytes) / entries
	r.layer["server.reproposals"] = delta(lead0, lead1, "fastba_reproposals")
	r.layer["server.repaired"] = delta(all0, all1, "fastba_repaired_total")
	r.layer["netrun.redials"] = delta(all0, all1, "fastba_net_redials_total")
	r.layer["netrun.suspects"] = delta(all0, all1, "fastba_net_suspects_total")
	r.layer["netrun.dropped_down"] = delta(all0, all1, "fastba_net_dropped_down_total")
	r.layer["server.shed"] = delta(lead0, lead1, "fastba_overload_shed_total")
	r.layer["client.overload_retries"] = float64(r.tally.retries.Load() - retries0)
	runtimeLayer(rt0, rt1, entries, r.layer)
	return r, nil
}

// appendOne submits one payload on a session, resending it while it is
// shed, and records the ack for the gate and, when timed, for the run.
func appendOne(ctx context.Context, dr *daemonRun, r *run, tr *tracer, s *session, due time.Time) {
	p := s.next()
	id := tr.id()
	seq, err := r.tally.submit(func() (uint64, error) {
		start := time.Now()
		seq, err := s.lc.Append(ctx, p)
		tr.record(tr.id(), id, "client.append", start, time.Now())
		return seq, err
	})
	end := time.Now()
	tr.record(id, 0, "append", due, end)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: append: %v\n", err)
		return
	}
	dr.addAck(ack{seq, p})
	r.observe(seq, due, end)
}

// driveClosed keeps inflight appends in flight on each session until the
// window ends, then lets every one of them finish.
func driveClosed(ctx context.Context, dr *daemonRun, r *run, tr *tracer) error {
	deadline := r.t0.Add(r.window)
	var wg sync.WaitGroup
	for _, s := range dr.sessions {
		for w := 0; w < inflight; w++ {
			wg.Add(1)
			go func(s *session) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					appendOne(ctx, dr, r, tr, s, time.Now())
				}
			}(s)
		}
	}
	wg.Wait()
	return nil
}

// driveKill offers killRate appends per second on a fixed schedule,
// timing each from when it was due, while daemon killTarget is killed and
// rebuilt on its store once per period of the window: killed at a third
// of the period, rebuilt at two thirds.
func driveKill(ctx context.Context, dr *daemonRun, r *run, tr *tracer) error {
	c := dr.c
	deadline := r.t0.Add(r.window)
	var (
		wg     sync.WaitGroup
		lagMu  sync.Mutex
		lags   []float64
		schErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cycles, p := r.periods()
		var restarts, catchups []float64
		for k := 0; k < cycles; k++ {
			at := r.t0.Add(time.Duration(k) * p)
			time.Sleep(time.Until(at.Add(p / 3)))
			ks := time.Now()
			c.ds[killTarget].Kill()
			tr.record(tr.id(), 0, "server.kill", ks, time.Now())
			time.Sleep(time.Until(at.Add(2 * p / 3)))
			rs := time.Now()
			took, err := c.restart(killTarget)
			if err != nil {
				schErr = err
				return
			}
			tr.record(tr.id(), 0, "server.restart", rs, rs.Add(took))
			restarts = append(restarts, took.Seconds())
			for c.ds[killTarget].Frontier() < c.ds[0].Frontier() {
				if time.Since(rs) > convergeTimeout {
					schErr = fmt.Errorf("daemon %d did not catch up within %v", killTarget, convergeTimeout)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			tr.record(tr.id(), 0, "server.catchup", rs, time.Now())
			catchups = append(catchups, time.Since(rs).Seconds())
		}
		r.layer["server.restart_s"] = median(restarts)
		r.layer["server.catchup_s"] = median(catchups)
	}()

	interval := time.Second * sessions / killRate
	var gens sync.WaitGroup
	for si, s := range dr.sessions {
		gens.Add(1)
		go func(s *session, offset time.Duration) {
			defer gens.Done()
			var mine []float64
			for i := 0; ; i++ {
				due := r.t0.Add(offset + time.Duration(i)*interval)
				if !due.Before(deadline) {
					break
				}
				time.Sleep(time.Until(due))
				mine = append(mine, float64(time.Since(due))/float64(time.Millisecond))
				wg.Add(1)
				go func() {
					defer wg.Done()
					appendOne(ctx, dr, r, tr, s, due)
				}()
			}
			lagMu.Lock()
			lags = append(lags, mine...)
			lagMu.Unlock()
		}(s, interval*time.Duration(si)/sessions)
	}
	gens.Wait()
	wg.Wait()
	if schErr != nil {
		return schErr
	}
	lag, err := quantileMs("bench.gen_lag_p99_ms", lags, 0.99)
	r.layer["bench.gen_lag_p99_ms"] = lag
	return err
}
