package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastba/fastba"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/pipeline"
)

// fabric-log: the protocol core alone. One in-process DecisionLog on the
// fabric runtime, no store, no sockets, no sessions, so the sampler,
// core.Node, the pipeline mux and the fabric are all that run. A sampler
// change must show here; every I/O layer is bypassed.
const (
	fabricN       = 24
	fabricCorrupt = 0.10
	fabricKnow    = 1.0
	fabricDepth   = 4
	fabricBatch   = 64
	fabricLinger  = 2 * time.Millisecond
	fabricClients = 2
	// fabricWindow is each client's closed-loop window: together the
	// clients keep one batch forming while Depth batches are open, so the
	// pipeline never idles and no append queues behind more than that.
	fabricWindow = (fabricDepth + 1) * fabricBatch / fabricClients
	// countEntries is how many full batches the message-count pass commits.
	countEntries = 16
	// fabricMemRate paces the memory checkpoint (see newRun): about half
	// the slowest acked rate seen on a 2-CPU host.
	fabricMemRate = 600
)

// coreKinds are the protocol's message kinds, reported per entry.
var coreKinds = []string{"push", "poll", "pull", "fw1", "fw2", "answer"}

// drainTimeout bounds how long a run waits for appends still in flight
// when the timed phase ends. They are awaited, not cancelled.
const drainTimeout = 60 * time.Second

// payloadSource makes a workload's unique payloads from the seed: the
// first 8 bytes name the stream and the payload's index in it, the other
// 24 are seeded noise.
type payloadSource struct {
	stream uint32
	n      uint32
	rng    *rand.Rand
}

func newPayloads(seed uint64, stream uint32) *payloadSource {
	return &payloadSource{stream: stream, rng: rand.New(rand.NewSource(int64(seed*1_000_003 + uint64(stream))))}
}

func (p *payloadSource) next() []byte {
	b := make([]byte, 32)
	b[0], b[1], b[2], b[3] = byte(p.stream>>24), byte(p.stream>>16), byte(p.stream>>8), byte(p.stream)
	b[4], b[5], b[6], b[7] = byte(p.n>>24), byte(p.n>>16), byte(p.n>>8), byte(p.n)
	p.n++
	p.rng.Read(b[8:])
	return b
}

// openFabricLog opens the workload's log; commits counts its entries.
func openFabricLog(seed uint64, commits *atomic.Uint64) (*fastba.DecisionLog, error) {
	cfg := fastba.NewConfig(fabricN,
		fastba.WithSeed(seed),
		fastba.WithCorruptFrac(fabricCorrupt),
		fastba.WithKnowFrac(fabricKnow),
		fastba.WithObserver(func(e fastba.Event) {
			if e.Type == fastba.EventCommit {
				commits.Add(1)
			}
		}),
	)
	return fastba.OpenLog(context.Background(), cfg,
		fastba.WithLogRuntime(fastba.RuntimeFabric),
		fastba.WithLogDepth(fabricDepth),
		fastba.WithLogBatch(fabricBatch),
		fastba.WithLogLinger(fabricLinger),
	)
}

// gateLog closes the log and checks it: the log oracles on its committed
// entries, then every acked payload at its acked seq exactly once.
func gateLog(l *fastba.DecisionLog, acks []ack) ([]fastba.LogEntry, error) {
	if err := l.Close(); err != nil {
		return nil, fmt.Errorf("close log: %w", err)
	}
	entries := l.Committed()
	if rep := fastba.CheckLogInvariants(entries, fabricKnow); !rep.OK() {
		return nil, fmt.Errorf("log oracles: %s", strings.Join(rep.Strings(), "; "))
	}
	log := make([][][]byte, len(entries))
	for i, e := range entries {
		if e.Seq != uint64(i) {
			return nil, fmt.Errorf("committed entry %d has seq %d", i, e.Seq)
		}
		log[i] = e.Payloads
	}
	if err := checkAcked(log, acks); err != nil {
		return nil, err
	}
	return entries, nil
}

func runFabricLog(seed uint64, window time.Duration, tr *tracer) (*run, error) {
	r := newRun(window, fabricMemRate)
	ctx, cancel := context.WithTimeout(context.Background(), window+drainTimeout)
	defer cancel()

	// Set-up rounds: open a log and wait for its first ack. All but the
	// last are closed and checked again at once.
	var (
		l       *fastba.DecisionLog
		commits *atomic.Uint64
		acks    []ack
	)
	for round := 0; round < setupRounds; round++ {
		if l != nil {
			if _, err := gateLog(l, acks); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		commits = new(atomic.Uint64)
		var err error
		if l, err = openFabricLog(seed, commits); err != nil {
			return nil, err
		}
		p := newPayloads(seed, uint32(1000+round)).next()
		t, err := l.Propose(ctx, p)
		if err != nil {
			return nil, err
		}
		e, err := t.Wait(ctx)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		acks = []ack{{e.Seq, p}}
	}

	rt0 := readRuntime()
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	marked := r.startWindow(commits.Load)
	deadline := r.t0.Add(window)
	f0 := r.marks[0].Load()

	var (
		wg     sync.WaitGroup
		ackMu  sync.Mutex
		failMu sync.Mutex
		fail   error
	)
	for c := 0; c < fabricClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := newPayloads(seed, uint32(c))
			type pending struct {
				id      uint64
				t       *fastba.Ticket
				start   time.Time
				payload []byte
			}
			var q []pending
			settle := func() {
				p := q[0]
				q = q[1:]
				ws := time.Now()
				e, err := p.t.Wait(ctx)
				end := time.Now()
				tr.record(tr.id(), p.id, "log.wait", ws, end)
				tr.record(p.id, 0, "append", p.start, end)
				if err != nil {
					r.tally.failed.Add(1)
					failMu.Lock()
					fail = err
					failMu.Unlock()
					return
				}
				r.tally.acked.Add(1)
				r.observe(e.Seq, p.start, end)
				ackMu.Lock()
				acks = append(acks, ack{e.Seq, p.payload})
				ackMu.Unlock()
			}
			for time.Now().Before(deadline) {
				if len(q) >= fabricWindow {
					settle()
					continue
				}
				payload := src.next()
				id := tr.id()
				start := time.Now()
				r.tally.attempted.Add(1)
				t, err := l.Propose(ctx, payload)
				tr.record(tr.id(), id, "log.propose", start, time.Now())
				if err != nil {
					r.tally.failed.Add(1)
					failMu.Lock()
					fail = err
					failMu.Unlock()
					break
				}
				q = append(q, pending{id, t, start, payload})
			}
			for len(q) > 0 {
				settle()
			}
		}(c)
	}
	wg.Wait()
	marked()
	drained := commits.Load()
	rt1 := readRuntime()
	shares, err := tr.stopProfile()
	if err != nil {
		return nil, err
	}
	if fail != nil {
		return nil, fmt.Errorf("append failed: %w", fail)
	}
	entries, err := gateLog(l, acks)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return r, nil
	}

	for k, v := range shares {
		r.layer[k+".cpu_share"] = v
	}
	var payloads int
	for _, e := range entries {
		payloads += e.PayloadCount
	}
	r.layer["log.payloads_per_entry"] = float64(payloads) / float64(len(entries))
	waits := tr.durationsMs("log.propose")
	if r.layer["log.propose_wait_p99_ms"], err = quantileMs("log.propose_wait_p99_ms", waits, 0.99); err != nil {
		return nil, err
	}
	runtimeLayer(rt0, rt1, float64(drained-f0), r.layer)
	return r, countMessages(seed, r.layer)
}

// countMessages measures the protocol's cost per committed entry on the
// engine OpenLog runs, configured as the workload's log: the log's
// Observer reports commits only, so the messages are counted by the
// engine's fabric over a short pass of full batches.
func countMessages(seed uint64, out map[string]float64) error {
	eng, err := pipeline.New(pipeline.Config{
		N:           fabricN,
		Params:      core.DefaultParams(fabricN),
		Seed:        seed,
		CorruptFrac: fabricCorrupt,
		KnowFrac:    fabricKnow,
		Depth:       fabricDepth,
	})
	if err != nil {
		return err
	}
	eng.StartFabric()
	src := newPayloads(seed, 2000)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	var last uint64
	for i := 0; i < countEntries; i++ {
		batch := make([][]byte, fabricBatch)
		for j := range batch {
			batch[j] = src.next()
		}
		if last, err = eng.Append(ctx, batch); err != nil {
			eng.Abort()
			return err
		}
	}
	if _, err := eng.WaitSeq(ctx, last); err != nil {
		eng.Abort()
		return err
	}
	if err := eng.Close(); err != nil {
		return err
	}
	m := eng.Metrics()
	var msgs, bytes int64
	for _, k := range coreKinds {
		msgs += m.ByKind[k]
		out["core.msgs_per_entry."+k] = float64(m.ByKind[k]) / countEntries
	}
	for _, nm := range m.PerNode {
		bytes += nm.SentBytes
	}
	out["core.msgs_per_entry"] = float64(msgs) / countEntries
	out["core.bytes_per_entry"] = float64(bytes) / countEntries
	return nil
}
