package simnet

// SyncRunner executes nodes in lock-step rounds. Messages sent during round
// r are delivered during round r+1 (§2.1 "Network", synchronous case).
//
// Within a round the runner first delivers the previous round's messages to
// every node (correct nodes first, then Byzantine — delivery order inside a
// round is unobservable in the model), collecting each node's sends. If any
// registered node implements Rusher, the runner then reveals the round's
// correct-node sends to the Rushers, which may inject additional messages
// into the same round: this is exactly the rushing adversary of §2.1. With
// no Rusher present the execution is non-rushing.
type SyncRunner struct {
	nodes    []Node
	corrupt  []bool // corrupt[i] reports whether node i is Byzantine
	metrics  *Metrics
	observer Observer
	stop     func() bool
	inj      *Injector

	pending []Envelope // messages in flight (due this round or later)
	due     []Envelope // scratch: the messages due in the current round
	seq     uint64
	round   int
	ctx     *syncCtx // reused across deliveries (contexts are call-scoped)
}

// NewSync returns a runner over the given nodes. corrupt marks the
// Byzantine nodes (used to order intra-round processing for the rushing
// semantics); it may be nil when no node is Byzantine.
func NewSync(nodes []Node, corrupt []bool) *SyncRunner {
	if corrupt == nil {
		corrupt = make([]bool, len(nodes))
	}
	if len(corrupt) != len(nodes) {
		panic("simnet: corrupt mask length mismatch")
	}
	return &SyncRunner{
		nodes:   nodes,
		corrupt: corrupt,
		metrics: newMetrics(len(nodes)),
	}
}

// Observe registers an observer invoked on every delivery. It must be
// called before Run.
func (r *SyncRunner) Observe(o Observer) { r.observer = o }

// StopWhen registers a cancellation probe polled at every round boundary;
// when it returns true the run abandons the remaining rounds and returns
// the metrics collected so far. It must be called before Run.
func (r *SyncRunner) StopWhen(f func() bool) { r.stop = f }

// InjectFaults installs a fault plan, judged at send time: dropped
// messages are metered as sent but never delivered, duplicated messages
// are delivered twice, and a delay of d defers delivery by d whole rounds.
// It must be called before Run.
func (r *SyncRunner) InjectFaults(plan FaultPlan) {
	r.inj = NewInjector(plan, len(r.nodes))
}

// Ticker is implemented by nodes that act on synchronous round boundaries
// (e.g. committee protocols that tally everything received in a round).
// The SyncRunner calls OnRoundEnd after all of a round's deliveries, in
// node-ID order; messages sent there are delivered next round. The
// asynchronous runners never call it — protocols relying on Ticker are
// synchronous by construction (like the KSSV06-style substrate).
type Ticker interface {
	Node
	OnRoundEnd(ctx Context, round int)
}

// syncCtx implements Context for one activation of one node.
type syncCtx struct {
	r    *SyncRunner
	from NodeID
	now  int
}

func (c *syncCtx) Now() int { return c.now }

func (c *syncCtx) Send(to NodeID, m Message) {
	e := Envelope{From: c.from, To: to, Msg: m, Depth: c.now + 1, seq: c.r.seq}
	c.r.seq++
	validateEnvelope(len(c.r.nodes), e)
	c.r.metrics.recordSend(e)
	if c.r.inj == nil {
		c.r.pending = append(c.r.pending, e)
		return
	}
	v := c.r.inj.Judge(e, c.now)
	e.Depth += v.Delay
	for i := 0; i < v.Copies; i++ {
		if i > 0 { // duplicates carry their own sequence number
			e.seq = c.r.seq
			c.r.seq++
		}
		c.r.pending = append(c.r.pending, e)
	}
}

// Run initializes every node and then executes rounds until either no
// messages remain in flight or maxRounds rounds have elapsed. It returns
// the collected metrics. Run must be called at most once.
func (r *SyncRunner) Run(maxRounds int) *Metrics {
	r.initNodes()
	for r.round = 1; r.round <= maxRounds && len(r.pending) > 0; r.round++ {
		if r.stop != nil && r.stop() {
			break
		}
		r.step()
	}
	if rounds := r.round - 1; rounds > r.metrics.Rounds {
		r.metrics.Rounds = rounds
	}
	return r.metrics
}

// Rounds returns the number of rounds executed so far.
func (r *SyncRunner) Rounds() int { return r.round - 1 }

func (r *SyncRunner) initNodes() {
	// Correct nodes first so that rushing Byzantine nodes could in
	// principle observe initial sends too; Init for Byzantine nodes runs
	// after, giving them the standard full-information advantage.
	for id, n := range r.nodes {
		if !r.corrupt[id] {
			n.Init(&syncCtx{r: r, from: id, now: 0})
		}
	}
	correctSends := append([]Envelope(nil), r.pending...)
	for id, n := range r.nodes {
		if r.corrupt[id] {
			n.Init(&syncCtx{r: r, from: id, now: 0})
			if rusher, ok := n.(Rusher); ok {
				rusher.Rush(&syncCtx{r: r, from: id, now: 0}, 0, correctSends)
			}
		}
	}
}

// step delivers the pending messages due this round and collects the
// sends of the current one. With a fault plan installed, delayed messages
// (Depth beyond the current round) stay in flight until their round comes.
func (r *SyncRunner) step() {
	var toDeliver []Envelope
	if r.inj == nil {
		// Double-buffer: this round's sends reuse the storage the previous
		// round delivered from instead of regrowing a fresh slice.
		toDeliver, r.pending = r.pending, r.due[:0]
	} else {
		toDeliver = r.due[:0]
		keep := r.pending[:0]
		for _, e := range r.pending {
			if e.Depth <= r.round {
				toDeliver = append(toDeliver, e)
			} else {
				keep = append(keep, e)
			}
		}
		r.pending = keep
	}
	r.due = toDeliver
	carried := len(r.pending) // in-flight delayed messages are not this round's sends

	// Deliver to correct nodes first and track what they send this round.
	for _, e := range toDeliver {
		if !r.corrupt[e.To] {
			r.deliver(e)
		}
	}
	correctSends := append([]Envelope(nil), r.pending[carried:]...)

	// Then Byzantine nodes receive their messages and, if rushing, observe
	// the correct nodes' round traffic before sending.
	for _, e := range toDeliver {
		if r.corrupt[e.To] {
			r.deliver(e)
		}
	}
	for id, n := range r.nodes {
		if !r.corrupt[id] {
			continue
		}
		if rusher, ok := n.(Rusher); ok {
			rusher.Rush(&syncCtx{r: r, from: id, now: r.round}, r.round, correctSends)
		}
	}

	// Round boundary: tick the nodes that act on round ends.
	for id, n := range r.nodes {
		if ticker, ok := n.(Ticker); ok {
			ticker.OnRoundEnd(&syncCtx{r: r, from: id, now: r.round}, r.round)
		}
	}
}

func (r *SyncRunner) deliver(e Envelope) {
	// Fail-silence covers receipt, not only transmission: a message
	// arriving while its destination is inside a crash window vanishes at
	// the door (in-flight sends do not survive into a crash, and delayed
	// messages cannot land on a crashed node).
	if r.inj != nil && r.inj.CrashedAt(e.To, r.round) {
		return
	}
	// Depth is re-stamped to the actual delivery round: messages injected
	// by a Rusher were created with the same round number as regular sends
	// but all arrive in the next round.
	e.Depth = r.round
	r.metrics.recordDeliver(e)
	if r.ctx == nil {
		r.ctx = &syncCtx{r: r}
	}
	r.ctx.from, r.ctx.now = e.To, r.round
	r.nodes[e.To].Deliver(r.ctx, e.From, e.Msg)
	if r.observer != nil {
		r.observer(e)
	}
}
