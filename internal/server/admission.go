package server

import (
	"net"
	"sync"
	"time"
)

// pending is one admitted client append: queued on its session, batched
// round-robin into an instance, acked when that instance commits.
type pending struct {
	sess    *session
	req     uint64
	payload []byte
	queued  time.Time
}

// session is one client connection's admission state: a bounded FIFO of
// not-yet-batched appends, and a write lock serializing ack frames (the
// commit path and the read loop both write to the connection).
type session struct {
	id   uint64
	conn net.Conn

	wmu sync.Mutex

	queue []*pending // guarded by the admission mutex
}

// write sends one frame to the client, serialized against concurrent
// ack writers. The deadline bounds how long a wedged client can stall
// the commit observer. Errors are the connection's problem: the client
// is gone and the commit it missed is recoverable through Status.
func (s *session) write(msg any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	return WriteClientMsg(s.conn, msg)
}

// admission is the daemon's ingest gate: per-client bounded queues (the
// overload contract — a client that outruns the pipeline gets CodeOverload
// back, it is never silently buffered without bound) and a fair
// round-robin batch former (one payload per client per pass, so a
// firehose client cannot starve a trickle client).
type admission struct {
	maxQueue int
	maxBatch int

	mu       sync.Mutex
	cond     *sync.Cond
	sessions map[uint64]*session
	order    []uint64 // round-robin visit order (session ids)
	rr       int
	queued   int
	inflight map[uint64][]*pending // instance seq → batch members
	closed   bool
	nextID   uint64
}

func newAdmission(maxQueue, maxBatch int) *admission {
	a := &admission{
		maxQueue: maxQueue,
		maxBatch: maxBatch,
		sessions: make(map[uint64]*session),
		inflight: make(map[uint64][]*pending),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// attach registers a client connection and returns its session.
func (a *admission) attach(conn net.Conn) *session {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextID++
	s := &session{id: a.nextID, conn: conn}
	a.sessions[s.id] = s
	a.order = append(a.order, s.id)
	return s
}

// detach drops a departed client: its queued (unbatched) appends are
// abandoned — the connection their acks would ride is gone. Inflight
// batch members keep their session pointer; the commit-path write simply
// fails.
func (a *admission) detach(s *session) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.sessions[s.id]; !ok {
		return
	}
	delete(a.sessions, s.id)
	for i, id := range a.order {
		if id == s.id {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
	a.queued -= len(s.queue)
	s.queue = nil
}

// enqueue admits one append, returning CodeOK (queued, ack follows at
// commit), CodeOverload (the session's queue is full) or CodeShutdown.
func (a *admission) enqueue(s *session, req uint64, payload []byte) byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return CodeShutdown
	}
	if len(s.queue) >= a.maxQueue {
		return CodeOverload
	}
	s.queue = append(s.queue, &pending{sess: s, req: req, payload: payload, queued: time.Now()})
	a.queued++
	a.cond.Signal()
	return CodeOK
}

// nextBatch blocks until work is queued, then forms a batch round-robin:
// repeated passes over the sessions, one payload each, until maxBatch or
// every queue is dry. Returns nil exactly when the admission gate is
// closed and fully drained — the batcher's exit signal.
func (a *admission) nextBatch() []*pending {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.queued == 0 && !a.closed {
		a.cond.Wait()
	}
	if a.queued == 0 {
		return nil
	}
	var batch []*pending
	for a.queued > 0 && len(batch) < a.maxBatch && len(a.order) > 0 {
		took := false
		for i := 0; i < len(a.order) && a.queued > 0 && len(batch) < a.maxBatch; i++ {
			s := a.sessions[a.order[a.rr%len(a.order)]]
			a.rr++
			if s == nil || len(s.queue) == 0 {
				continue
			}
			p := s.queue[0]
			s.queue = s.queue[1:]
			a.queued--
			batch = append(batch, p)
			took = true
		}
		if !took {
			break
		}
	}
	return batch
}

// sessionCount reports open client sessions.
func (a *admission) sessionCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.sessions)
}

// track parks a batch under its assigned instance sequence until commit.
func (a *admission) track(seq uint64, batch []*pending) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inflight[seq] = batch
}

// resolve claims the batch committed as seq (nil when the batch came from
// a peer daemon's client, or was repaired after a restart).
func (a *admission) resolve(seq uint64) []*pending {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.inflight[seq]
	delete(a.inflight, seq)
	return b
}

// close shuts the gate: subsequent enqueues are rejected with
// CodeShutdown, queued work stays for the batcher to drain, and the
// batcher is woken so it can observe the close.
func (a *admission) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	a.cond.Broadcast()
}

// inflightCount reports batches awaiting their commit acks — the
// shutdown path waits for zero before closing client connections, so an
// admitted append is never orphaned without its ack.
func (a *admission) inflightCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.inflight)
}

// abandonInflight claims every inflight batch at once — the
// shutdown-abort path, when the engine failed and commits will never
// arrive.
func (a *admission) abandonInflight() []*pending {
	a.mu.Lock()
	defer a.mu.Unlock()
	var all []*pending
	for seq, b := range a.inflight {
		all = append(all, b...)
		delete(a.inflight, seq)
	}
	return all
}
