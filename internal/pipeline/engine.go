package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/simnet"
	"github.com/fastba/fastba/internal/store"
)

// ErrClosed reports an append on a cleanly closed log — as opposed to a
// log that failed (instance timeout) or was aborted by context
// cancellation, whose appends return the recorded fatal error.
var ErrClosed = fmt.Errorf("pipeline: log closed")

// Config parameterizes one decision log.
type Config struct {
	// N is the system size; Params the protocol geometry (zero value:
	// core.DefaultParams(N)).
	N      int
	Params core.Params
	// Seed keys everything derived: corruption, per-instance knowledge,
	// junk values and per-(instance, node) private randomness.
	Seed uint64
	// CorruptFrac is the fraction of fail-silent Byzantine nodes, fixed for
	// the whole log (the adversary is non-adaptive).
	CorruptFrac float64
	// KnowFrac is the per-instance fraction of correct nodes that start
	// knowing the instance's value; the rest hold a shared junk candidate.
	KnowFrac float64
	// Depth bounds concurrently open instances (≥ 1).
	Depth int
	// CommitFraction is the fraction of correct hosted nodes that must
	// decide before an instance commits (default 1 — every correct hosted
	// node).
	CommitFraction float64
	// InstanceTimeout fails the log when an owned head instance (one this
	// engine opened through Append) does not commit in time (default 30s).
	// Lossy fault plans can legitimately destroy an instance's liveness;
	// the timeout turns that into a reported error instead of a hang.
	// Learned instances never time out: their owner does.
	InstanceTimeout time.Duration
	// ReproposeAfter is how long an owned head instance may sit undecided
	// before the engine re-opens it with a bumped attempt (default 2s). A
	// reopen rebuilds the protocol nodes under fresh attempt-salted
	// samplers — the retry that turns the protocol's almost-everywhere
	// guarantee into log liveness — and, on a partially hosted engine,
	// re-delivers the open to peers that missed it. A fully hosted engine
	// reopens only a quiesced run, so a slow but live head is not cut short.
	ReproposeAfter time.Duration
	// Faults is the fault plan installed on the transport's send path.
	Faults simnet.FaultPlan
	// Net carries the TCP transport's supervision knobs — dial timeout,
	// redial policy, heartbeat detector, send-queue bound, chaos plan —
	// which StartFabric ignores. Net.Hosted, when set, makes the engine one
	// daemon of a multi-process log and requires StartTCP: it hosts one
	// aligned block of k contiguous node ids (the population is N/k such
	// blocks), the other ids are remote, an appended instance is broadcast
	// to one node of every peer block as a simnet.LogOpen, and a received
	// LogOpen opens a learned instance.
	Net netrun.Options
	// CatchupAddr is the TCP catch-up listener's address (default an
	// ephemeral loopback port). PeerCatchup lists the peers' catch-up
	// addresses: when set, a commit frontier that stalls for StallAfter
	// (default 1s) is repaired from their committed logs, checked every
	// RepairEvery (default 250ms).
	CatchupAddr string
	PeerCatchup []string
	RepairEvery time.Duration
	StallAfter  time.Duration
	// DisablePool turns off per-instance node recycling (benchmark knob:
	// the naive-rebuild arm of BenchmarkLogInstanceReuse).
	DisablePool bool
	// OnCommit, when set, observes every committed entry, in sequence
	// order, from the engine's commit goroutine.
	OnCommit func(Entry)
	// Store, when set, makes the log durable: the engine seeds its
	// committed prefix from the store's recovered records (new instances
	// open at the recovered frontier) and persists every in-order commit
	// to the store BEFORE surfacing it through WaitSeq/OnCommit — a
	// surfaced commit is always already durable.
	Store *store.Store
}

// Entry is one committed decision-log record.
type Entry struct {
	// Seq is the instance sequence number; committed seqs are contiguous
	// from 0.
	Seq uint64
	// Value is the decided value — the digest of the batch, as agreed by
	// the instance's deciders.
	Value bitstring.String
	// Payloads are the client payloads folded into this instance.
	Payloads [][]byte
	// Deciders and Correct count the correct nodes that decided before the
	// commit and the correct population.
	Deciders int
	Correct  int
	// DistinctValues counts distinct decided values among deciders at
	// commit time (> 1 is a log-agreement violation).
	DistinctValues int
	// CertDeficits counts deciders whose re-derived quorum certificate
	// fell short of the strict poll-list majority (must stay 0).
	CertDeficits int
	// MatchesProposal reports whether Value equals the batch digest the
	// engine proposed (a validity probe).
	MatchesProposal bool
	// Opened and Committed bound the instance's lifetime.
	Opened    time.Time
	Committed time.Time
	// Repaired reports a commit taken from a peer's committed log (catch-up
	// repair) rather than from local decisions. It is not persisted.
	Repaired bool
}

// instance is one open (not yet committed) agreement instance. An owned
// instance was opened here through Append: it holds a Depth slot, is
// reproposed, timed out and drained by Close. A learned one arrived as a
// peer's LogOpen: it is repaired from peers and abandoned by Close.
type instance struct {
	seq      uint64
	proposed bitstring.String
	payloads [][]byte
	opened   time.Time
	lastOpen time.Time // last (re)open — paces reproposals
	attempt  uint32
	owned    bool

	// decided dedups per node: a reopened child can re-publish its
	// decision.
	decided      []bool
	deciders     int
	values       map[bitstring.MapKey]int
	value        bitstring.String // a maximally decided value
	valueCount   int
	certDeficits int

	committed chan struct{} // closed when the instance commits or the log fails
}

// Engine runs the pipelined decision log over one long-lived transport.
// Build it with New, start exactly one transport (StartFabric or
// StartTCP), feed it with Append, then Close it. It is both the
// in-process log (every node hosted, every instance owned) and one daemon
// of the multi-process log (Net.Hosted; instances owned by whoever
// appends them, learned everywhere else).
type Engine struct {
	cfg     Config
	params  core.Params
	corrupt []bool
	hosted  []int // hosted node ids, ascending (every id when Net.Hosted is nil)
	block   int   // k, the hosted block size, on a partially hosted engine; else 0
	correct int   // correct hosted nodes
	need    int   // deciders required to commit
	nodes   []simnet.Node

	fab     *simnet.Fabric
	cluster *netrun.Cluster
	inject  func(simnet.Envelope)
	// quiesced reports no message in flight (nil when partially hosted).
	quiesced func() bool
	// recovered counts entries seeded from the store at construction;
	// catchupAddr is the TCP catch-up listener's bound address.
	recovered   int
	catchupAddr string

	slots   chan struct{} // Depth tokens: held while an owned instance is open
	wake    chan struct{} // commit-watcher kick (capacity 1)
	done    chan struct{} // worker shutdown
	failCh  chan struct{} // closed on the first fatal error, releasing Append waiters
	workers sync.WaitGroup

	mu        sync.Mutex
	nextSeq   uint64
	commitSeq uint64
	open      map[uint64]*instance
	// repaired holds peer records fetched for seqs at or past the frontier.
	repaired    map[uint64]store.Record
	nRepaired   int
	nReproposed int
	// instPool recycles committed instance shells (struct + values map +
	// decided set); the committed channel is rebuilt per use — a closed
	// channel cannot be reused. Guarded by mu.
	instPool []*instance
	entries  []Entry
	failed   error
	closed   bool

	teardown sync.Once
}

// New validates the configuration and assembles the node vector. The
// engine is inert until a transport starts.
func New(cfg Config) (*Engine, error) {
	if cfg.N < 8 {
		return nil, fmt.Errorf("pipeline: n = %d too small (need ≥ 8)", cfg.N)
	}
	if cfg.Params.N == 0 {
		cfg.Params = core.DefaultParams(cfg.N)
	}
	if cfg.Params.N != cfg.N {
		return nil, fmt.Errorf("pipeline: params are for n = %d, log has n = %d", cfg.Params.N, cfg.N)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params.StringBits > 8*sha256.Size {
		return nil, fmt.Errorf("pipeline: StringBits %d exceeds the %d-bit value digest", cfg.Params.StringBits, 8*sha256.Size)
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	if cfg.CommitFraction <= 0 {
		cfg.CommitFraction = 1
	}
	if cfg.CommitFraction > 1 {
		return nil, fmt.Errorf("pipeline: commit fraction %v above 1", cfg.CommitFraction)
	}
	if cfg.InstanceTimeout <= 0 {
		cfg.InstanceTimeout = 30 * time.Second
	}
	if cfg.ReproposeAfter <= 0 {
		cfg.ReproposeAfter = 2 * time.Second
	}
	if cfg.CatchupAddr == "" {
		cfg.CatchupAddr = "127.0.0.1:0"
	}
	if cfg.RepairEvery <= 0 {
		cfg.RepairEvery = 250 * time.Millisecond
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = time.Second
	}
	if !(cfg.CorruptFrac >= 0 && cfg.CorruptFrac < 1.0/3) {
		return nil, fmt.Errorf("pipeline: corrupt fraction %v outside [0, 1/3)", cfg.CorruptFrac)
	}
	if !(cfg.KnowFrac >= 0 && cfg.KnowFrac <= 1) {
		return nil, fmt.Errorf("pipeline: know fraction %v outside [0, 1]", cfg.KnowFrac)
	}
	if err := cfg.Faults.Validate(cfg.N); err != nil {
		return nil, err
	}
	hosted := cfg.Net.Hosted
	if hosted != nil && len(hosted) != cfg.N {
		return nil, fmt.Errorf("pipeline: Hosted has %d entries for n = %d", len(hosted), cfg.N)
	}

	e := &Engine{
		cfg:      cfg,
		params:   cfg.Params,
		slots:    make(chan struct{}, cfg.Depth),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		failCh:   make(chan struct{}),
		open:     make(map[uint64]*instance),
		repaired: make(map[uint64]store.Record),
	}

	// Non-adaptive corruption, fixed for the log's lifetime (the shared
	// cross-runtime derivation — derive.go).
	e.corrupt = CorruptSet(cfg.Seed, cfg.N, cfg.CorruptFrac)
	for id := 0; id < cfg.N; id++ {
		if hosted == nil || hosted[id] {
			e.hosted = append(e.hosted, id)
			if !e.corrupt[id] {
				e.correct++
			}
		}
	}
	if hosted != nil {
		// Peer daemons are the other aligned k-blocks (the layout the
		// daemon's port plan fixes): LogOpen broadcasts address them.
		k := len(e.hosted)
		if k == 0 || cfg.N%k != 0 || e.hosted[0]%k != 0 || e.hosted[k-1] != e.hosted[0]+k-1 {
			return nil, fmt.Errorf("pipeline: hosted nodes %v are not one aligned block of contiguous ids", e.hosted)
		}
		e.block = k
	}
	if e.correct == 0 {
		return nil, fmt.Errorf("pipeline: no correct hosted node (corrupt fraction %v)", cfg.CorruptFrac)
	}
	e.need = int(math.Ceil(cfg.CommitFraction * float64(e.correct)))
	if e.need < 1 {
		e.need = 1
	}

	// A durable log resumes where its store's recovered prefix ends: the
	// recovered entries seed the committed log (never re-surfaced through
	// OnCommit — their commits were surfaced in a previous life) and new
	// instances open at the recovered frontier.
	if cfg.Store != nil {
		for _, r := range cfg.Store.Records() {
			e.entries = append(e.entries, EntryOf(r))
		}
		e.commitSeq = cfg.Store.Frontier()
		e.nextSeq = e.commitSeq
		e.recovered = len(e.entries)
	}

	// Hosted ids run MuxNodes; the rest are transport-only placeholders
	// (the transport carries every envelope addressed to them). A
	// partially hosted engine's nodes also receive LogOpen broadcasts.
	smp := core.NewSamplers(cfg.Params)
	e.nodes = make([]simnet.Node, cfg.N)
	for id := range e.nodes {
		e.nodes[id] = remoteNode{}
	}
	for _, id := range e.hosted {
		m := NewMuxNode(id, e.corrupt[id], cfg.Params, smp, cfg.Seed, e.onDecision)
		m.disablePool = cfg.DisablePool
		e.nodes[id] = m
		if e.block > 0 {
			e.nodes[id] = learnerNode{m, e}
		}
	}
	return e, nil
}

// remoteNode stands in for a node hosted by a peer process.
type remoteNode struct{}

func (remoteNode) Init(simnet.Context)                         {}
func (remoteNode) Deliver(simnet.Context, int, simnet.Message) {}

// learnerNode is a hosted MuxNode that hands LogOpen broadcasts to the
// engine before protocol delivery.
type learnerNode struct {
	*MuxNode
	e *Engine
}

func (n learnerNode) Deliver(ctx simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if lo, ok := msg.(simnet.LogOpen); ok {
		n.e.learn(lo)
		return
	}
	n.MuxNode.Deliver(ctx, from, msg)
}

// RecordOf converts a committed entry to its durable form.
func RecordOf(en Entry) store.Record {
	return store.Record{
		Seq:             en.Seq,
		Value:           en.Value,
		Payloads:        en.Payloads,
		Deciders:        en.Deciders,
		Correct:         en.Correct,
		DistinctValues:  en.DistinctValues,
		CertDeficits:    en.CertDeficits,
		MatchesProposal: en.MatchesProposal,
		OpenedNs:        en.Opened.UnixNano(),
		CommittedNs:     en.Committed.UnixNano(),
	}
}

// EntryOf reverses RecordOf for recovered and repaired records.
func EntryOf(r store.Record) Entry {
	return Entry{
		Seq:             r.Seq,
		Value:           r.Value,
		Payloads:        r.Payloads,
		Deciders:        r.Deciders,
		Correct:         r.Correct,
		DistinctValues:  r.DistinctValues,
		CertDeficits:    r.CertDeficits,
		MatchesProposal: r.MatchesProposal,
		Opened:          time.Unix(0, r.OpenedNs),
		Committed:       time.Unix(0, r.CommittedNs),
	}
}

// Correct returns the number of correct hosted nodes.
func (e *Engine) Correct() int { return e.correct }

// Recovered returns how many committed entries were seeded from the
// store's recovered prefix at construction.
func (e *Engine) Recovered() int { return e.recovered }

// Frontier returns the committed frontier.
func (e *Engine) Frontier() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commitSeq
}

// Repaired returns how many entries committed through peer catch-up;
// Reproposed how many times a stalled owned head was re-opened.
func (e *Engine) Repaired() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nRepaired
}

func (e *Engine) Reproposed() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nReproposed
}

// StartFabric runs the log over the in-process loopback Fabric
// (CounterClock: fault windows and decision times are per-node delivery
// counts, the sustained-load analogue of rounds).
func (e *Engine) StartFabric() {
	if e.block > 0 { // remote peers are reachable only over TCP
		e.mu.Lock()
		e.failLocked(fmt.Errorf("pipeline: StartFabric on a partially hosted engine (Net.Hosted requires StartTCP)"))
		e.mu.Unlock()
		return
	}
	e.fab = simnet.NewFabric(e.nodes, simnet.CounterClock, true)
	if !e.cfg.Faults.IsZero() {
		e.fab.SetFaults(e.cfg.Faults)
	}
	e.fab.ServeCatchup(e.CatchupRecords)
	e.fab.Start()
	e.inject, e.quiesced = e.fab.InjectLocal, e.fab.Quiesced
	e.startWorkers()
}

// Listen binds the TCP transport — the hosted nodes' listeners and the
// catch-up listener — without starting it, so a bind failure surfaces
// before anything runs. StartTCP calls it if the caller has not.
func (e *Engine) Listen() error {
	if e.cluster != nil {
		return nil
	}
	cluster, err := netrun.NewWithOptions(e.nodes, e.cfg.Net)
	if err != nil {
		return err
	}
	if !e.cfg.Faults.IsZero() {
		cluster.InjectFaults(e.cfg.Faults)
	}
	addr, err := cluster.ServeCatchup(e.cfg.CatchupAddr, e.CatchupRecords)
	if err != nil {
		cluster.Close()
		return err
	}
	e.catchupAddr = addr
	e.cluster = cluster
	e.inject = cluster.Inject
	if e.block == 0 { // a partial cluster cannot see its peers' traffic
		e.quiesced = cluster.Quiesced
	}
	return nil
}

// StartTCP runs the log over real TCP sockets (one listener per hosted
// node, lazily dialed mesh — internal/netrun).
func (e *Engine) StartTCP() error {
	if err := e.Listen(); err != nil {
		return err
	}
	e.cluster.Start()
	e.startWorkers()
	return nil
}

// startWorkers launches the commit watcher and, with peers to repair
// from, the repair loop.
func (e *Engine) startWorkers() {
	e.workers.Add(1)
	go e.watch()
	if len(e.cfg.PeerCatchup) > 0 {
		e.workers.Add(1)
		go e.repairLoop()
	}
}

// CatchupAddr returns the TCP catch-up listener's address ("" on the
// fabric runtime, whose surface is Catchup).
func (e *Engine) CatchupAddr() string { return e.catchupAddr }

// CatchupRecords serves one catch-up chunk: the committed entries
// [from, from+max), encoded as store records. It is the handler behind
// both transports' catch-up surfaces.
func (e *Engine) CatchupRecords(from uint64, max int) [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	if from >= e.commitSeq || max <= 0 {
		return nil
	}
	end := from + uint64(max)
	if end > e.commitSeq {
		end = e.commitSeq
	}
	out := make([][]byte, 0, end-from)
	for seq := from; seq < end; seq++ {
		out = append(out, store.AppendRecord(nil, RecordOf(e.entries[seq])))
	}
	return out
}

// Catchup fetches one chunk through the running fabric's catch-up
// surface (the in-process analogue of netrun.FetchCatchup against
// CatchupAddr). ok reports whether a fabric is serving — a stopped or
// failed engine no longer is, exactly like a dead TCP listener.
func (e *Engine) Catchup(from uint64, max int) ([][]byte, bool) {
	if e.fab == nil {
		return nil, false
	}
	e.mu.Lock()
	live := !e.closed && e.failed == nil
	e.mu.Unlock()
	if !live {
		return nil, false
	}
	return e.fab.Catchup(from, max)
}

// Value derives instance seq's proposal digest from the batch: the first
// StringBits bits of SHA-256 over (seed, seq, payloads). All correct
// runtimes derive the same value for the same inputs, which is what makes
// committed logs comparable across transports (the shared cross-runtime
// derivation — derive.go).
func (e *Engine) Value(seq uint64, payloads [][]byte) bitstring.String {
	return BatchValue(e.cfg.Seed, e.params.StringBits, seq, payloads)
}

// Append opens the next instance with the given batch, owned by this
// engine, blocking while the pipeline is at Depth. It returns the
// assigned sequence number; the commit is observed with WaitSeq or
// OnCommit.
func (e *Engine) Append(ctx context.Context, payloads [][]byte) (uint64, error) {
	select {
	case e.slots <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-e.failCh:
		return 0, e.runError()
	case <-e.done:
		return 0, e.runError()
	}

	e.mu.Lock()
	if err := e.appendBlocked(); err != nil {
		e.mu.Unlock()
		<-e.slots
		return 0, err
	}
	seq := e.nextSeq
	e.nextSeq++
	if seq > MaxSeq {
		e.failLocked(fmt.Errorf("pipeline: instance tag overflow at seq %d", seq))
		e.mu.Unlock()
		<-e.slots
		return 0, e.runError()
	}
	inst := e.openLocked(seq, payloads)
	inst.owned = true
	proposed := inst.proposed
	e.mu.Unlock()

	e.openInstance(seq, 0, proposed)
	e.broadcastOpen(seq, 0, payloads)
	return seq, nil
}

// openLocked registers a fresh open instance. Callers hold e.mu.
func (e *Engine) openLocked(seq uint64, payloads [][]byte) *instance {
	inst := e.getInstance()
	inst.seq = seq
	inst.proposed = e.Value(seq, payloads)
	inst.payloads = payloads
	inst.opened = time.Now()
	inst.lastOpen = inst.opened
	inst.committed = make(chan struct{})
	e.open[seq] = inst
	return inst
}

// getInstance returns a recycled instance shell or builds a fresh one.
// Callers hold e.mu.
func (e *Engine) getInstance() *instance {
	if n := len(e.instPool); n > 0 {
		inst := e.instPool[n-1]
		e.instPool = e.instPool[:n-1]
		return inst
	}
	return &instance{values: make(map[bitstring.MapKey]int, 1), decided: make([]bool, e.cfg.N)}
}

// putInstance recycles a committed instance shell. Callers hold e.mu and
// guarantee the instance is no longer reachable through e.open — late
// deciders find nil there and waiters resolve through e.entries, so the
// only outstanding references are commit channels captured under the lock
// before the recycle.
func (e *Engine) putInstance(inst *instance) {
	clear(inst.values)
	clear(inst.decided)
	*inst = instance{values: inst.values, decided: inst.decided}
	e.instPool = append(e.instPool, inst)
}

// appendBlocked reports why new instances cannot open, if they cannot.
func (e *Engine) appendBlocked() error {
	if e.failed != nil {
		return e.failed
	}
	if e.closed {
		return ErrClosed
	}
	return nil
}

// openInstance distributes MsgOpen for (seq, attempt) to every hosted node
// with its deterministic initial belief (the shared cross-runtime
// derivation — derive.go).
func (e *Engine) openInstance(seq uint64, attempt uint32, value bitstring.String) {
	msgs := OpenMsgs(e.cfg.Seed, e.params.StringBits, e.cfg.KnowFrac, e.corrupt, seq, attempt, value)
	for _, id := range e.hosted {
		if msgs[id] != nil { // corrupt nodes ignore MsgOpen
			e.inject(simnet.Envelope{From: id, To: id, Msg: msgs[id]})
		}
	}
}

// broadcastOpen ships an owned instance's batch to one node of every peer
// block of a partially hosted engine, rotated by attempt so a single bad
// link cannot eat every reproposal. A dark peer's frames die in its
// supervised link, and the peer closes the gap through repair or a later
// reproposal.
func (e *Engine) broadcastOpen(seq uint64, attempt uint32, payloads [][]byte) {
	if e.block == 0 {
		return
	}
	from := e.hosted[0]
	lo := simnet.LogOpen{Seq: seq, Attempt: attempt, Payloads: payloads}
	for base := 0; base < e.cfg.N; base += e.block {
		if base != from {
			e.cluster.Send(simnet.Envelope{From: from, To: base + int(attempt)%e.block, Msg: lo})
		}
	}
}

// learn handles a peer's LogOpen broadcast: it registers the instance as
// learned and injects the opens into the hosted nodes. Duplicates, stale
// attempts and committed seqs are dropped; a higher attempt re-injects the
// opens so the hosted nodes re-run the instance.
func (e *Engine) learn(lo simnet.LogOpen) {
	e.mu.Lock()
	if e.failed != nil || e.closed || lo.Seq < e.commitSeq || lo.Seq > MaxSeq {
		e.mu.Unlock()
		return
	}
	inst := e.open[lo.Seq]
	if inst != nil && lo.Attempt <= inst.attempt {
		e.mu.Unlock()
		return
	}
	if inst == nil {
		inst = e.openLocked(lo.Seq, lo.Payloads)
		if lo.Seq >= e.nextSeq {
			e.nextSeq = lo.Seq + 1
		}
	}
	inst.attempt = lo.Attempt
	inst.lastOpen = time.Now()
	proposed := inst.proposed
	e.mu.Unlock()

	e.openInstance(lo.Seq, lo.Attempt, proposed)
	e.kick()
}

// onDecision is the MuxNode callback: record one node's decision and kick
// the commit watcher. A node counts once per instance across reopens;
// decisions arriving after the instance committed (possible below
// CommitFraction 1) are dropped.
func (e *Engine) onDecision(node int, seq uint64, value bitstring.String, support, need int) {
	e.mu.Lock()
	inst := e.open[seq]
	fresh := inst != nil && !inst.decided[node]
	if fresh {
		inst.decided[node] = true
		inst.deciders++
		k := value.MapKey()
		inst.values[k]++
		if inst.values[k] > inst.valueCount {
			inst.valueCount = inst.values[k]
			inst.value = value
		}
		if support < need {
			inst.certDeficits++
		}
	}
	e.mu.Unlock()
	if fresh {
		e.kick()
	}
}

// kick wakes the commit watcher without blocking.
func (e *Engine) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// watch is the commit goroutine: it advances the in-order commit frontier
// on every decision signal and polls for reproposals and timeouts.
func (e *Engine) watch() {
	defer e.workers.Done()
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-e.wake:
		case <-ticker.C:
		}
		e.advance()
	}
}

// advance commits the head instance — through local decisions when the
// threshold is met, through a repaired peer record when catch-up filled
// the gap first — in sequence order, with persist-before-surface. A
// stalled owned head is reproposed, then failed at the instance timeout.
func (e *Engine) advance() {
	for {
		e.mu.Lock()
		if e.failed != nil {
			e.mu.Unlock()
			return
		}
		inst := e.open[e.commitSeq]
		rec, repaired := e.repaired[e.commitSeq]
		var entry Entry
		switch {
		case inst != nil && inst.deciders >= e.need:
			entry = Entry{
				Seq:             inst.seq,
				Value:           inst.value,
				Payloads:        inst.payloads,
				Deciders:        inst.deciders,
				Correct:         e.correct,
				DistinctValues:  len(inst.values),
				CertDeficits:    inst.certDeficits,
				MatchesProposal: inst.value.Equal(inst.proposed),
				Opened:          inst.opened,
				Committed:       time.Now(),
			}
		case repaired:
			entry = EntryOf(rec)
			entry.Repaired = true
		case inst != nil && inst.owned:
			e.retryLocked(inst) // unlocks
			return
		default:
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()

		// Persist before surfacing: the entry reaches the store — durably —
		// before anything observable (WaitSeq, OnCommit, Entries) can see
		// it. The instance stays in e.open across the unlocked append, so a
		// concurrent failLocked (Abort, timeout) still finds and releases
		// it; late decisions mutate counters the snapshot above no longer
		// reads.
		if st := e.cfg.Store; st != nil {
			if err := st.Append(RecordOf(entry)); err != nil {
				e.mu.Lock()
				e.failLocked(fmt.Errorf("pipeline: persist seq %d: %w", entry.Seq, err))
				e.mu.Unlock()
				return
			}
		}

		e.mu.Lock()
		if e.failed != nil {
			// failLocked ran during the persist: it already closed every
			// open instance's commit channel (ours included) and cleared
			// e.open. The entry is durable but never surfaced — recovery
			// replays it, which is exactly what the durability oracle's
			// prefix-extension rule permits.
			e.mu.Unlock()
			return
		}
		delete(e.repaired, e.commitSeq)
		delete(e.open, e.commitSeq)
		e.commitSeq++
		e.nextSeq = max(e.nextSeq, e.commitSeq)
		e.entries = append(e.entries, entry)
		if entry.Repaired {
			e.nRepaired++
		}
		var committed chan struct{}
		owned := false
		if inst != nil {
			committed, owned = inst.committed, inst.owned
			e.putInstance(inst)
		}
		e.mu.Unlock()

		if committed != nil {
			close(committed)
		}
		if owned {
			<-e.slots // free the pipeline slot
		}
		var closeMsg simnet.Message = MsgClose{Seq: entry.Seq} // boxed once, not per node
		for _, id := range e.hosted {
			if !e.corrupt[id] {
				e.inject(simnet.Envelope{From: id, To: id, Msg: closeMsg})
			}
		}
		if e.cfg.OnCommit != nil {
			e.cfg.OnCommit(entry)
		}
	}
}

// retryLocked handles a stalled owned head: past the instance timeout the
// log fails; past ReproposeAfter since its last open it is re-opened with
// a bumped attempt, which rebuilds the protocol nodes under fresh
// attempt-salted samplers and re-delivers the open to peers. Callers hold
// e.mu; retryLocked releases it.
func (e *Engine) retryLocked(inst *instance) {
	if time.Since(inst.opened) > e.cfg.InstanceTimeout {
		e.failLocked(fmt.Errorf("pipeline: instance %d: %d of %d required deciders after %v",
			inst.seq, inst.deciders, e.need, e.cfg.InstanceTimeout))
		e.mu.Unlock()
		return
	}
	// A fully hosted engine sees every message, so it reopens only a run
	// that is over: a slow run still has messages in flight.
	if time.Since(inst.lastOpen) <= e.cfg.ReproposeAfter || inst.attempt >= MaxAttempt ||
		(e.quiesced != nil && !e.quiesced()) {
		e.mu.Unlock()
		return
	}
	inst.attempt++
	inst.lastOpen = time.Now()
	e.nReproposed++
	seq, attempt, value, payloads := inst.seq, inst.attempt, inst.proposed, inst.payloads
	e.mu.Unlock()
	e.openInstance(seq, attempt, value)
	e.broadcastOpen(seq, attempt, payloads)
}

// repairLoop watches the commit frontier: when it stalls past StallAfter
// — a restart gap, a missed broadcast, a straggling hosted node — it
// fetches committed records from the peers and hands them to advance.
func (e *Engine) repairLoop() {
	defer e.workers.Done()
	ticker := time.NewTicker(e.cfg.RepairEvery)
	defer ticker.Stop()
	peers := e.cfg.PeerCatchup
	lastSeen, lastMove := e.Frontier(), time.Now()
	next := 0 // rotating peer cursor
	for {
		select {
		case <-e.done:
			return
		case <-ticker.C:
		}
		fr := e.Frontier()
		if fr != lastSeen {
			lastSeen, lastMove = fr, time.Now()
			continue
		}
		if time.Since(lastMove) < e.cfg.StallAfter {
			continue
		}
		for i := range peers {
			enc, err := netrun.FetchCatchup(peers[(next+i)%len(peers)], fr, e.cfg.Net.DialTimeout)
			if err != nil {
				continue
			}
			recs, _ := store.DecodeRun(fr, enc) // keep the good prefix
			if e.addRepairs(recs) > 0 {
				next = (next + i + 1) % len(peers)
				lastMove = time.Now()
				e.kick()
				break
			}
		}
	}
}

// addRepairs registers fetched records not yet committed for the commit
// path and returns how many it registered.
func (e *Engine) addRepairs(recs []store.Record) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, rec := range recs {
		if rec.Seq >= e.commitSeq {
			e.repaired[rec.Seq] = rec
			n++
		}
	}
	return n
}

// failLocked records the first fatal error and releases every waiter.
// Callers hold e.mu.
func (e *Engine) failLocked(err error) {
	if e.failed != nil {
		return
	}
	e.failed = err
	close(e.failCh)
	for _, inst := range e.open {
		close(inst.committed)
	}
	e.open = make(map[uint64]*instance)
}

// runError returns the recorded fatal error, or a generic closed error.
func (e *Engine) runError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failed != nil {
		return e.failed
	}
	return ErrClosed
}

// WaitSeq blocks until instance seq commits and returns its entry.
func (e *Engine) WaitSeq(ctx context.Context, seq uint64) (Entry, error) {
	e.mu.Lock()
	if seq < e.commitSeq {
		entry := e.entries[seq]
		e.mu.Unlock()
		return entry, nil
	}
	if err := e.failed; err != nil {
		e.mu.Unlock()
		return Entry{}, err
	}
	inst := e.open[seq]
	next := e.nextSeq
	// Capture the channel under the lock: once the instance commits its
	// shell is recycled (putInstance), so inst fields must not be read
	// afterwards.
	var committed chan struct{}
	if inst != nil {
		committed = inst.committed
	}
	e.mu.Unlock()
	if inst == nil {
		return Entry{}, fmt.Errorf("pipeline: seq %d not open (next append is %d)", seq, next)
	}
	select {
	case <-committed:
	case <-ctx.Done():
		return Entry{}, ctx.Err()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq < e.commitSeq {
		return e.entries[seq], nil
	}
	if e.failed != nil {
		return Entry{}, e.failed
	}
	return Entry{}, fmt.Errorf("pipeline: seq %d released without commit", seq)
}

// CommittedSeq returns instance seq's entry if it has already committed.
func (e *Engine) CommittedSeq(seq uint64) (Entry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq < e.commitSeq {
		return e.entries[seq], true
	}
	return Entry{}, false
}

// Failed returns a channel closed on the log's first fatal error (an
// instance timeout, an abort). Waiters holding per-payload state use it
// to resolve promptly instead of discovering the failure at Close.
func (e *Engine) Failed() <-chan struct{} { return e.failCh }

// Entries snapshots the committed log in sequence order.
func (e *Engine) Entries() []Entry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Entry(nil), e.entries...)
}

// Err returns the log's fatal error, if any.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failed
}

// Close shuts the log down by ownership: no new Appends or learned opens;
// every owned instance gets until the instance timeout to commit, while
// learned instances are abandoned — their owner drains them, and a
// process that only learned an instance has acked nothing for it. Then
// the transport tears down. Close returns the log's fatal error, if any;
// the store stays open for its owner to close.
func (e *Engine) Close() error {
	e.mu.Lock()
	e.closed = true
	// Capture channels, not instances: a committed shell is recycled.
	var waiting []chan struct{}
	for _, inst := range e.open {
		if inst.owned {
			waiting = append(waiting, inst.committed)
		}
	}
	e.mu.Unlock()
	deadline := time.NewTimer(e.cfg.InstanceTimeout + time.Second)
	defer deadline.Stop()
	for _, committed := range waiting {
		select {
		case <-committed:
		case <-deadline.C:
			e.mu.Lock()
			e.failLocked(fmt.Errorf("pipeline: close: open instances did not drain in %v", e.cfg.InstanceTimeout))
			e.mu.Unlock()
		}
	}
	e.stop()
	return e.Err()
}

// Abort tears the transport down immediately, abandoning open instances
// (the context-cancellation path).
func (e *Engine) Abort() {
	e.mu.Lock()
	e.failLocked(context.Canceled)
	e.mu.Unlock()
	e.stop()
}

// stop shuts the workers and the transport down, once.
func (e *Engine) stop() {
	e.teardown.Do(func() {
		close(e.done)
		e.workers.Wait()
		if e.fab != nil {
			e.fab.Stop()
		}
		if e.cluster != nil {
			e.cluster.Close()
		}
	})
}

// Metrics returns the transport's merged per-node metrics. Call it only
// after Close or Abort.
func (e *Engine) Metrics() *simnet.Metrics {
	if e.cluster != nil {
		return e.cluster.Metrics()
	}
	if e.fab != nil {
		return e.fab.Metrics()
	}
	return nil
}

// NetStats snapshots the TCP transport's connection-supervision counters.
// Unlike Metrics it is safe mid-run (the counters are atomic); the zero
// value is returned on the fabric runtime, which has no connections.
func (e *Engine) NetStats() simnet.NetStats {
	if e.cluster != nil {
		return e.cluster.NetStats()
	}
	return simnet.NetStats{}
}
