package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/pipeline"
	"github.com/fastba/fastba/internal/store"
)

// reserveBases probes for daemons contiguous free port blocks of k+3
// ports each and returns the base addresses. The listeners are closed
// before returning, so a parallel process could steal a port — the probe
// draws from below the kernel's ephemeral range (32768+ on Linux), where
// no outgoing connection takes a local port, so a daemon restarted on
// its block does not collide with one.
func reserveBases(t *testing.T, daemons, k int) []string {
	t.Helper()
	block := k + 3
	rnd := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 0; attempt < 50; attempt++ {
		base := 10000 + rnd.Intn(22000)
		var lns []net.Listener
		ok := true
		for p := base; p < base+daemons*block; p++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				ok = false
				break
			}
			lns = append(lns, ln)
		}
		for _, ln := range lns {
			ln.Close()
		}
		if ok {
			bases := make([]string, daemons)
			for d := range bases {
				bases[d] = fmt.Sprintf("127.0.0.1:%d", base+d*block)
			}
			return bases
		}
	}
	t.Fatal("no free port block found")
	return nil
}

// testCluster starts an in-process D-daemon cluster (daemon 0 leads) and
// returns the running daemons plus their store directories. tweaks adjust
// every daemon's configuration.
func testCluster(t *testing.T, daemons, k int, tweaks ...func(*Config)) ([]*Daemon, []string, []string) {
	t.Helper()
	bases := reserveBases(t, daemons, k)
	dirs := make([]string, daemons)
	ds := make([]*Daemon, daemons)
	for i := range ds {
		dirs[i] = t.TempDir()
		cfg := testConfig(bases, dirs, i, k)
		for _, tweak := range tweaks {
			tweak(&cfg)
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		ds[i] = d
	}
	for _, d := range ds {
		d.Start()
	}
	t.Cleanup(func() {
		for _, d := range ds {
			d.Kill() // no-op if already shut down
		}
	})
	return ds, dirs, bases
}

func testConfig(bases, dirs []string, i, k int) Config {
	return Config{
		ClusterAddrs:    bases,
		Daemon:          i,
		PerDaemon:       k,
		Seed:            42,
		Epoch:           1,
		StoreDir:        dirs[i],
		Depth:           2,
		BatchMax:        4,
		QueueMax:        32,
		SyncWindow:      time.Millisecond,
		JoinEvery:       100 * time.Millisecond,
		InstanceTimeout: 20 * time.Second,
		ReproposeAfter:  300 * time.Millisecond,
		// A dead peer's links give up fast, so its queued frames drop and
		// the restart tests exercise catch-up repair rather than riding the
		// redial queue.
		Reconnect:   netrun.ReconnectPolicy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond, MaxAttempts: 2},
		RepairEvery: 50 * time.Millisecond,
		StallAfter:  200 * time.Millisecond,
	}
}

// appendAll submits n payloads on one client connection and waits for
// every ack, returning req → committed seq for the CodeOK ones.
func appendAll(t *testing.T, addr string, n int, tag string) map[uint64]uint64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
	for i := 0; i < n; i++ {
		if err := WriteClientMsg(conn, Append{Req: uint64(i), Payload: []byte(fmt.Sprintf("%s-%d", tag, i))}); err != nil {
			t.Fatal(err)
		}
	}
	seqs := make(map[uint64]uint64, n)
	for len(seqs) < n {
		msg, err := ReadClientMsg(conn)
		if err != nil {
			t.Fatalf("after %d of %d acks: %v", len(seqs), n, err)
		}
		ack, ok := msg.(AppendAck)
		if !ok {
			t.Fatalf("unexpected reply %#v", msg)
		}
		if ack.Code != CodeOK {
			t.Fatalf("append %d: %s", ack.Req, CodeString(ack.Code))
		}
		seqs[ack.Req] = ack.Seq
	}
	return seqs
}

func waitFrontier(t *testing.T, d *Daemon, want uint64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for d.Frontier() < want {
		if time.Now().After(deadline) {
			t.Fatalf("daemon %d frontier %d, want ≥ %d (engine err: %v)",
				d.cfg.Daemon, d.Frontier(), want, d.Err())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// canonicalPrefix fetches a daemon's committed prefix through its
// catch-up listener and re-encodes it with the daemon-local observation
// fields (decider counts, timestamps) zeroed: what is left — seq, value,
// payloads, validity — is exactly what agreement promises to be
// byte-identical across daemons.
func canonicalPrefix(t *testing.T, catchupAddr string, n uint64) []string {
	t.Helper()
	enc, err := netrun.FetchCatchup(catchupAddr, 0, 2*time.Second)
	if err != nil {
		t.Fatalf("catch-up from %s: %v", catchupAddr, err)
	}
	if uint64(len(enc)) < n {
		t.Fatalf("catch-up from %s returned %d records, want ≥ %d", catchupAddr, len(enc), n)
	}
	out := make([]string, 0, n)
	for _, e := range enc[:n] {
		rec, err := store.DecodeRecord(e)
		if err != nil {
			t.Fatal(err)
		}
		rec.Deciders, rec.Correct, rec.DistinctValues, rec.CertDeficits = 0, 0, 0, 0
		rec.OpenedNs, rec.CommittedNs = 0, 0
		out = append(out, string(store.AppendRecord(nil, rec)))
	}
	return out
}

func checkAgreement(t *testing.T, ds []*Daemon, upTo uint64) {
	t.Helper()
	want := canonicalPrefix(t, ds[0].eng.CatchupAddr(), upTo)
	for _, d := range ds[1:] {
		got := canonicalPrefix(t, d.eng.CatchupAddr(), upTo)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("daemon %d record %d diverges from daemon 0", d.cfg.Daemon, i)
			}
		}
	}
}

// TestClusterCommitsAndConverges: a 4-daemon × 2-node cluster commits
// client appends over real sockets; every daemon converges to the same
// canonical committed prefix; the metrics and health endpoints serve.
func TestClusterCommitsAndConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon TCP cluster")
	}
	ds, _, _ := testCluster(t, 4, 2)

	top := topSeq(appendAll(t, ds[0].ClientAddr(), 12, "conv"))
	for _, d := range ds {
		waitFrontier(t, d, top, 30*time.Second)
	}
	checkAgreement(t, ds, top)

	// Status probe against a follower.
	conn, err := net.Dial("tcp", ds[2].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteClientMsg(conn, Status{}); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadClientMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := msg.(StatusAck)
	if !ok || st.Node != 2 || st.Leader || st.Frontier < top {
		t.Fatalf("status = %#v", msg)
	}
	if st.PeersAlive < 4 {
		t.Errorf("peers alive = %d, want 4 (join loop)", st.PeersAlive)
	}

	// Metrics + health endpoints.
	body := httpGet(t, "http://"+ds[0].MetricsAddr()+"/metrics")
	for _, want := range []string{"fastba_commit_seq", "fastba_commits_total", "fastba_net_frames_sent_total", "fastba_peers_alive"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if h := httpGet(t, "http://"+ds[0].MetricsAddr()+"/healthz"); !strings.Contains(h, "ok") {
		t.Errorf("/healthz = %q", h)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// topSeq returns the frontier that covers every acked seq.
func topSeq(seqs map[uint64]uint64) uint64 {
	var top uint64
	for _, seq := range seqs {
		top = max(top, seq+1)
	}
	return top
}

// TestClusterCorrectCountsHostedCorrect: with a corrupt node hosted on one
// daemon, each daemon's locally committed entries report its own correct
// hosted nodes as Correct, and never more deciders than that.
func TestClusterCorrectCountsHostedCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon TCP cluster")
	}
	const daemons, k, frac = 4, 2, 0.2
	ds, _, _ := testCluster(t, daemons, k, func(c *Config) { c.CorruptFrac = frac })
	top := topSeq(appendAll(t, ds[0].ClientAddr(), 12, "corrupt"))
	corrupt := pipeline.CorruptSet(ds[0].cfg.Seed, daemons*k, frac)
	short := false
	for i, d := range ds {
		waitFrontier(t, d, top, 30*time.Second)
		hostedCorrect := 0
		for id := i * k; id < (i+1)*k; id++ {
			if !corrupt[id] {
				hostedCorrect++
			}
		}
		short = short || hostedCorrect < k
		if got := d.eng.Correct(); got != hostedCorrect {
			t.Errorf("daemon %d: engine counts %d correct hosted nodes, want %d", i, got, hostedCorrect)
		}
		for _, e := range d.eng.Entries() {
			if e.Repaired {
				continue // a peer's record carries the peer's counts
			}
			if e.Correct != hostedCorrect || e.Deciders < 1 || e.Deciders > e.Correct {
				t.Errorf("daemon %d seq %d: %d deciders of Correct = %d, want 1..%d of %d",
					i, e.Seq, e.Deciders, e.Correct, hostedCorrect, hostedCorrect)
			}
		}
	}
	if !short {
		t.Fatal("no daemon hosts a corrupt node; the test proves nothing")
	}
}

// TestShutdownOrders: once traffic has quiesced, every daemon shuts down
// cleanly and well inside the instance timeout whether the leader leaves
// first or last — a follower abandons the instances it only learned
// instead of waiting for a departed leader to drive them.
func TestShutdownOrders(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon TCP cluster")
	}
	for _, order := range []struct {
		name string
		idx  []int
	}{
		{"leader-first", []int{0, 1, 2, 3}},
		{"leader-last", []int{1, 2, 3, 0}},
	} {
		t.Run(order.name, func(t *testing.T) {
			ds, _, _ := testCluster(t, 4, 2)
			top := topSeq(appendAll(t, ds[0].ClientAddr(), 8, order.name))
			for _, d := range ds {
				waitFrontier(t, d, top, 30*time.Second)
			}
			timeout := ds[0].cfg.InstanceTimeout
			for _, i := range order.idx {
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				start := time.Now()
				err := ds[i].Shutdown(ctx)
				took := time.Since(start)
				cancel()
				if err != nil {
					t.Errorf("daemon %d shutdown: %v", i, err)
				}
				if took > timeout/4 {
					t.Errorf("daemon %d shutdown took %v, want well inside the %v instance timeout", i, took, timeout)
				}
			}
		})
	}
}

// TestClusterKillRestart: killing one daemon (25% of the population,
// under the < 1/3 fail-silent bound) must not stop commits. The append
// stream keeps flowing across the kill and the restart, so the restarted
// daemon exercises both recovery paths: the WAL prefix plus startup
// catch-up for everything committed while it was dark, and the runtime
// repair loop for instances whose LogOpen broadcast it missed (open at
// restart time, committed just after its startup fetch). Everyone
// converges on the same canonical log.
func TestClusterKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon TCP cluster")
	}
	ds, dirs, bases := testCluster(t, 4, 2)

	first := appendAll(t, ds[0].ClientAddr(), 8, "pre")
	var top uint64
	for _, seq := range first {
		if seq >= top {
			top = seq + 1
		}
	}
	waitFrontier(t, ds[3], top, 30*time.Second)
	preKill := ds[3].Frontier()

	ds[3].Kill()

	// Background stream: keeps the pipeline full while daemon 3 is dark
	// and while it restarts, so some LogOpen broadcasts are lost for good
	// and only catch-up repair can close those instances on daemon 3.
	stop := make(chan struct{})
	streamed := make(chan uint64, 1)
	go func() {
		var streamTop uint64
		defer func() { streamed <- streamTop }() // also on t.Fatal's Goexit
		round := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, seq := range appendAll(t, ds[0].ClientAddr(), 4, fmt.Sprintf("live-%d", round)) {
				if seq >= streamTop {
					streamTop = seq + 1
				}
			}
			round++
		}
	}()

	time.Sleep(300 * time.Millisecond) // commits accumulate with daemon 3 dark

	re, err := New(testConfig(bases, dirs, 3, 2))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	// New performed the startup catch-up fetch; while the daemon is still
	// off the mesh, the stream commits (and retires) more instances. Those
	// are gone from the open set by the time the mesh joins — no broadcast
	// or reproposal will ever mention them again — so only the runtime
	// repair loop can close that gap. Hold Start until the leader is
	// demonstrably past the fetched prefix so the gap really exists.
	preFetch := re.eng.Frontier()
	for deadline := time.Now().Add(30 * time.Second); ds[0].Frontier() < preFetch+3; {
		if time.Now().After(deadline) {
			t.Fatalf("leader never advanced past the restart's fetched prefix %d", preFetch)
		}
		time.Sleep(10 * time.Millisecond)
	}
	re.Start()
	ds[3] = re
	t.Cleanup(re.Kill)
	if got := re.eng.Recovered(); got < int(preKill) {
		t.Errorf("restarted daemon recovered %d records, want ≥ the pre-kill frontier %d", got, preKill)
	}

	time.Sleep(500 * time.Millisecond) // stream spans the restart window
	close(stop)
	if st := <-streamed; st > top {
		top = st
	}

	for _, d := range ds {
		waitFrontier(t, d, top, 60*time.Second)
	}
	checkAgreement(t, ds, top)
	if re.eng.Repaired() == 0 {
		t.Error("restarted daemon repaired nothing through catch-up")
	}
	if re.eng.Recovered() <= int(preKill) {
		t.Errorf("startup catch-up transferred nothing: recovered %d, pre-kill frontier %d", re.eng.Recovered(), preKill)
	}
}

// TestShutdownNoLostAcks: a graceful shutdown racing a burst of appends
// must resolve every request exactly once, and every CodeOK ack must
// name a sequence that is durable in the WAL after the daemon exits —
// acked implies on disk.
func TestShutdownNoLostAcks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon TCP cluster")
	}
	ds, dirs, _ := testCluster(t, 4, 2)

	conn, err := net.Dial("tcp", ds[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
	const burst = 24
	for i := 0; i < burst; i++ {
		if err := WriteClientMsg(conn, Append{Req: uint64(i), Payload: []byte(fmt.Sprintf("ack-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
		defer cancel()
		shutdownDone <- ds[0].Shutdown(ctx)
	}()

	acked := make(map[uint64]byte, burst)
	okSeqs := make(map[uint64]string)
	for len(acked) < burst {
		msg, err := ReadClientMsg(conn)
		if err != nil {
			break // daemon closed the connection after the drain
		}
		ack, ok := msg.(AppendAck)
		if !ok {
			t.Fatalf("unexpected reply %#v", msg)
		}
		if _, dup := acked[ack.Req]; dup {
			t.Fatalf("request %d acked twice", ack.Req)
		}
		acked[ack.Req] = ack.Code
		if ack.Code == CodeOK {
			okSeqs[ack.Seq] = fmt.Sprintf("ack-%d", ack.Req)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(okSeqs) == 0 {
		t.Fatal("no append committed before the drain finished")
	}
	for req, code := range acked {
		if code != CodeOK && code != CodeShutdown {
			t.Errorf("request %d resolved with %s", req, CodeString(code))
		}
	}

	// Durability: every CodeOK-acked payload is in the closed WAL.
	st, err := store.Open(dirs[0], store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := st.Records()
	for seq, payload := range okSeqs {
		if seq >= uint64(len(recs)) {
			t.Fatalf("acked seq %d beyond recovered frontier %d", seq, len(recs))
			continue
		}
		found := false
		for _, p := range recs[seq].Payloads {
			if string(p) == payload {
				found = true
			}
		}
		if !found {
			t.Errorf("acked payload %q missing from durable record %d", payload, seq)
		}
	}

	// The drained daemon no longer accepts connections.
	if c, err := net.DialTimeout("tcp", ds[0].ClientAddr(), 500*time.Millisecond); err == nil {
		c.Close()
		t.Error("shut-down daemon still accepting connections")
	}
}
