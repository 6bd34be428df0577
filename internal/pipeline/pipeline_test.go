package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/simnet"
	"github.com/fastba/fastba/internal/store"
)

// appendAll feeds count deterministic single-payload batches and waits for
// every commit.
func appendAll(t *testing.T, e *Engine, count int) []Entry {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var last uint64
	for i := 0; i < count; i++ {
		seq, err := e.Append(ctx, [][]byte{[]byte(fmt.Sprintf("payload-%d", i))})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		last = seq
	}
	if _, err := e.WaitSeq(ctx, last); err != nil {
		t.Fatalf("wait seq %d: %v", last, err)
	}
	return e.Entries()
}

func checkLog(t *testing.T, entries []Entry, want int) {
	t.Helper()
	if len(entries) != want {
		t.Fatalf("committed %d entries, want %d", len(entries), want)
	}
	for i, entry := range entries {
		if entry.Seq != uint64(i) {
			t.Errorf("entry %d has seq %d: the log has a gap", i, entry.Seq)
		}
		if entry.DistinctValues != 1 {
			t.Errorf("seq %d: %d distinct decided values", entry.Seq, entry.DistinctValues)
		}
		if entry.CertDeficits != 0 {
			t.Errorf("seq %d: %d cert deficits", entry.Seq, entry.CertDeficits)
		}
		if !entry.MatchesProposal {
			t.Errorf("seq %d: decided value differs from the batch digest", entry.Seq)
		}
	}
}

func TestEngineFabricLog(t *testing.T) {
	e, err := New(Config{N: 16, Seed: 1, KnowFrac: 1, Depth: 2, InstanceTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, 6)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 6)
}

func TestEngineTCPLog(t *testing.T) {
	e, err := New(Config{N: 16, Seed: 1, KnowFrac: 1, Depth: 2, InstanceTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartTCP(); err != nil {
		t.Fatal(err)
	}
	entries := appendAll(t, e, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 4)
}

// TestEngineCorruptPopulation: the log commits with fail-silent Byzantine
// nodes present, and the deciders are exactly the correct nodes.
func TestEngineCorruptPopulation(t *testing.T) {
	e, err := New(Config{N: 24, Seed: 3, CorruptFrac: 0.1, KnowFrac: 1, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 4)
	for _, entry := range entries {
		if entry.Deciders != e.Correct() {
			t.Errorf("seq %d: %d deciders of %d correct", entry.Seq, entry.Deciders, e.Correct())
		}
	}
}

// TestEngineLosslessFaults: delay/duplication on the send path must not
// break commits, values or certificates.
func TestEngineLosslessFaults(t *testing.T) {
	plan := simnet.FaultPlan{Seed: 11, DupProb: 0.2, DelayProb: 0.3, MaxDelay: 3}
	e, err := New(Config{N: 16, Seed: 5, KnowFrac: 1, Depth: 3, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, 5)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 5)
}

// TestEngineAbort: aborting mid-run releases blocked waiters promptly with
// the cancellation error.
func TestEngineAbort(t *testing.T) {
	e, err := New(Config{N: 16, Seed: 1, KnowFrac: 1, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	ctx := context.Background()
	seq, err := e.Append(ctx, [][]byte{[]byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitSeq(ctx, seq); err != nil {
		t.Fatal(err)
	}
	e.Abort()
	if _, err := e.Append(ctx, [][]byte{[]byte("y")}); err == nil {
		t.Fatal("append after abort succeeded")
	}
}

// TestReproposalSparesLiveHead: a fully hosted engine reopens a stalled
// head only once its run is over (the transport quiesced), so a run that
// outlasts ReproposeAfter is never cut short — on either runtime.
func TestReproposalSparesLiveHead(t *testing.T) {
	for _, tc := range []struct {
		runtime string
		n       int
	}{{"fabric", 64}, {"tcp", 16}} {
		t.Run(tc.runtime, func(t *testing.T) {
			e, err := New(Config{N: tc.n, Seed: 1, KnowFrac: 1, Depth: 2, ReproposeAfter: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if tc.runtime == "fabric" {
				e.StartFabric()
			} else if err := e.StartTCP(); err != nil {
				t.Fatal(err)
			}
			entries := appendAll(t, e, 2)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			checkLog(t, entries, 2)
			if got := e.Reproposed(); got != 0 {
				t.Errorf("%d reproposals of live heads, want 0", got)
			}
		})
	}
}

// partialEngine builds an engine hosting nodes [k, 2k) of n whose peers
// never come up, so nothing it opens can decide.
func partialEngine(t *testing.T, n, k int, cfg Config) *Engine {
	t.Helper()
	hosted := make([]bool, n)
	addrs := make([]string, n)
	for id := range addrs {
		addrs[id] = "127.0.0.1:1" // peers that never come up
	}
	for id := k; id < 2*k; id++ {
		hosted[id], addrs[id] = true, "127.0.0.1:0"
	}
	cfg.N, cfg.Seed, cfg.KnowFrac = n, 1, 1
	cfg.Net = netrun.Options{Hosted: hosted, Addrs: addrs}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestStartFabricRefusesPartiallyHosted: a partially hosted engine's peers
// are remote, so StartFabric fails it instead of running half a cluster.
func TestStartFabricRefusesPartiallyHosted(t *testing.T) {
	e := partialEngine(t, 8, 2, Config{})
	e.StartFabric()
	if _, err := e.Append(context.Background(), [][]byte{[]byte("x")}); err == nil || !strings.Contains(err.Error(), "StartTCP") {
		t.Fatalf("append on a fabric-started partially hosted engine: %v, want the StartTCP error", err)
	}
	if err := e.Close(); err == nil {
		t.Fatal("close returned nil for a refused engine")
	}
}

// TestCloseAbandonsLearnedInstance: a partially hosted engine that learned
// an instance from a peer's LogOpen, with no peer running to help decide
// it, closes at once — a learned instance is abandoned, not drained — and
// its WAL holds only committed entries.
func TestCloseAbandonsLearnedInstance(t *testing.T) {
	const n, k = 8, 2
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := partialEngine(t, n, k, Config{Depth: 2, Store: st, InstanceTimeout: 5 * time.Second})
	if err := e.StartTCP(); err != nil {
		t.Fatal(err)
	}
	e.cluster.Inject(simnet.Envelope{From: 0, To: k, Msg: simnet.LogOpen{Seq: 0, Payloads: [][]byte{[]byte("x")}}})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		e.mu.Lock()
		learned := e.open[0] != nil && !e.open[0].owned
		e.mu.Unlock()
		if learned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("LogOpen never opened a learned instance")
		}
	}

	start := time.Now()
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Errorf("close took %v with one learned instance open, want < 1s", took)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, want := len(st.Records()), len(e.Entries()); got != want || got != 0 {
		t.Errorf("WAL holds %d records, engine committed %d; want 0 and 0", got, want)
	}
}
