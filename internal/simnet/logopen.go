package simnet

// LogOpen is the instance-open broadcast of the multi-process log daemon
// (internal/server): the leader daemon assigns a sequence number to a
// client batch and ships (seq, payloads) to one representative node on
// every peer daemon, whose log engine (internal/pipeline) re-derives the
// instance's value digest and per-node initial beliefs locally and
// injects MsgOpen into its hosted protocol nodes. It is transport-level
// control traffic — consumed by the engine, never delivered to a protocol
// node — but it travels as an ordinary wire frame (internal/wire) so the
// supervised-link layer carries, coalesces and meters it like everything
// else.
type LogOpen struct {
	// Seq is the assigned instance sequence number.
	Seq uint64
	// Attempt is the instance's run counter. The agreement protocol is
	// one-shot and randomized: at small n a run can leave nodes undecided
	// (almost-everywhere, not everywhere). When the leader's head instance
	// stalls it re-broadcasts the open with a bumped attempt; receivers
	// rebuild the instance's protocol node with an attempt-keyed RNG —
	// fresh poll labels, a fresh chance to decide. Decided nodes ignore
	// reopens, and the deterministic value derivation makes every attempt
	// propose the same digest, so re-runs cannot diverge.
	Attempt uint32
	// Payloads are the client payloads folded into the instance, in batch
	// order — the input to the deterministic value digest.
	Payloads [][]byte
}

// WireSize returns the encoded payload size: seq u64 + attempt u32 +
// count u32 + per-payload length prefixes and bytes (the CatchupResp
// layout behind a sequence header).
func (m LogOpen) WireSize() int {
	size := 16
	for _, p := range m.Payloads {
		size += 4 + len(p)
	}
	return size
}

// Kind implements Message ("log-open" is taken by the pipeline's local
// MsgOpen control message; the broadcast gets its own kind tag).
func (m LogOpen) Kind() string { return "open-bcast" }
