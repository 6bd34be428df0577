package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"github.com/fastba/fastba"
	"github.com/fastba/fastba/internal/metrics"
)

// minTail is the tail-percentile rule: a percentile is reported only when
// at least this many samples lie beyond it.
const minTail = 10

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile (the rank metrics.Quantile reports).
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// supported reports whether n samples support the q-quantile under the
// tail rule.
func supported(n int, q float64) bool { return beyond(n, q) >= minTail }

// quantileMs returns the q-quantile of latencies in milliseconds, or an
// error naming the metric when the samples do not support it.
func quantileMs(name string, lat []float64, q float64) (float64, error) {
	if !supported(len(lat), q) {
		return 0, fmt.Errorf("%s: %d samples leave %d beyond the %g quantile, the rule needs %d",
			name, len(lat), beyond(len(lat), q), q, minTail)
	}
	return metrics.Quantile(lat, q), nil
}

// longestGap returns the longest interval inside [from, to] that holds no
// ack: the window's edges count as acks, so a run that acks nothing
// reports the whole window.
func longestGap(from, to time.Time, acks []time.Time) time.Duration {
	ts := make([]time.Time, 0, len(acks)+2)
	ts = append(ts, from)
	for _, t := range acks {
		if !t.Before(from) && !t.After(to) {
			ts = append(ts, t)
		}
	}
	ts = append(ts, to)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	var gap time.Duration
	for i := 1; i < len(ts); i++ {
		gap = max(gap, ts[i].Sub(ts[i-1]))
	}
	return gap
}

// median returns the nearest-rank median of xs.
func median(xs []float64) float64 { return metrics.Quantile(xs, 0.5) }

// tally counts what happened to the payloads a workload tried to append.
// An append that admission control shed is resent after a backoff and is
// not a failure: the SDK contract says it was never admitted. Everything
// else that does not end in an ack is.
type tally struct {
	attempted atomic.Int64
	acked     atomic.Int64
	failed    atomic.Int64
	retries   atomic.Int64
}

// maxBackoff caps the delay between resends of a shed append.
const maxBackoff = 64 * time.Millisecond

// submit appends one payload through do, resending it with exponential
// backoff for as long as admission control sheds it, and records the
// outcome. A lost session, a failed ack or any other error is returned
// and counted as a failure.
func (t *tally) submit(do func() (uint64, error)) (uint64, error) {
	t.attempted.Add(1)
	backoff := time.Millisecond
	for {
		seq, err := do()
		if err == nil {
			t.acked.Add(1)
			return seq, nil
		}
		if !errors.Is(err, fastba.ErrOverload) {
			t.failed.Add(1)
			return 0, err
		}
		t.retries.Add(1)
		time.Sleep(backoff)
		backoff = min(2*backoff, maxBackoff)
	}
}

// ack is one acknowledged append: where the log placed it and what it held.
type ack struct {
	seq     uint64
	payload []byte
}

// checkAcked is the acknowledgement half of the correctness gate. log[i]
// holds the payloads committed at seq i; every acked payload must appear
// in the log exactly once, at the seq its ack named.
func checkAcked(log [][][]byte, acks []ack) error {
	where := make(map[string][]uint64)
	for seq, payloads := range log {
		for _, p := range payloads {
			where[string(p)] = append(where[string(p)], uint64(seq))
		}
	}
	for _, a := range acks {
		seqs := where[string(a.payload)]
		switch {
		case len(seqs) == 0:
			return fmt.Errorf("acked payload %x (seq %d) is not in the log", a.payload, a.seq)
		case len(seqs) > 1:
			return fmt.Errorf("acked payload %x is in the log %d times, at seqs %v", a.payload, len(seqs), seqs)
		case seqs[0] != a.seq:
			return fmt.Errorf("payload %x was acked at seq %d but committed at seq %d", a.payload, a.seq, seqs[0])
		}
	}
	return nil
}
