// Package sampler implements the sampler machinery of §2.2 of the paper:
// the quorum samplers I and H of Lemma 1 (used for Push Quorums and Pull
// Quorums) and the poll-list sampler J of Lemma 2, together with empirical
// checkers for the (θ, δ)-sampler property and for Lemma 2's Properties 1
// and 2 (the border-expansion / isoperimetric condition of Figure 3).
//
// Lemma 1 proves the existence of samplers in which no node is overloaded.
// We realize I and H constructively as the union of d keyed pseudorandom
// permutations of [n]:
//
//	I(s, x) = { σ_{s,j}(x) : j ∈ [d] }
//
// Each σ_{s,j} is a bijection, so every node y belongs to exactly d quorums
// I(s, ·) for every string s — the no-overload condition holds
// deterministically with constant a = 1 — while quorum composition remains
// pseudorandom (the sampler property is validated empirically by this
// package's tests, mirroring the random-graph argument of §4.1). Inverse
// queries ("which quorums do I sit in?"), needed by the Push phase, cost
// O(d) permutation inversions.
//
// The samplers are stateless pure functions of their seed: every query
// rebuilds the keyed permutations it needs, by value, so a sampler holds no
// per-string memory however many strings a long-lived log presents, and
// needs no lock however many goroutines share it. Callers that ask the same
// question repeatedly cache the answer themselves: each protocol node keeps
// a per-instance membership index of the quorums and poll lists it checks
// (internal/core).
package sampler

import (
	"fmt"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
)

// Quorum is the interface shared by the string-indexed samplers I and H.
// Implementations must be deterministic and safe for concurrent use.
// Quorum and Inverse must return freshly allocated slices on every call:
// callers own the result and may mutate it (the protocol core deduplicates
// inverse quorums in place).
type Quorum interface {
	// Quorum returns the quorum assigned to node x for string s.
	// The result may contain duplicates only if the implementation is
	// multiset-based; the permutation construction returns distinct slots
	// per j but the same node may appear under two different j.
	Quorum(s bitstring.String, x int) []int
	// QuorumAppend appends Quorum(s, x) to dst and returns the extended
	// slice, the allocation-free form for callers that sample into a
	// reused buffer (they pass dst[:0]).
	QuorumAppend(dst []int, s bitstring.String, x int) []int
	// Inverse returns every node x such that y ∈ Quorum(s, x).
	Inverse(s bitstring.String, y int) []int
	// Contains reports whether y ∈ Quorum(s, x).
	Contains(s bitstring.String, x, y int) bool
	// Size returns the quorum cardinality d (counting multiplicity).
	Size() int
	// N returns the node-domain size.
	N() int
}

// PermQuorum is the permutation-based quorum sampler described in the
// package comment. It realizes both I and H; the two instances are
// domain-separated by their key tags. It is immutable after construction.
type PermQuorum struct {
	n, d int
	seed uint64
}

var _ Quorum = (*PermQuorum)(nil)

// NewPermQuorum returns a quorum sampler over [0, n) with quorums of size d.
// tag domain-separates independent samplers drawn from the same master seed
// (e.g. "I" and "H"). It panics on non-positive n or d: sampler geometry is
// fixed at configuration time and invalid values are programming errors.
func NewPermQuorum(n, d int, seed uint64, tag string) *PermQuorum {
	if n <= 0 || d <= 0 {
		panic(fmt.Sprintf("sampler: invalid PermQuorum geometry n=%d d=%d", n, d))
	}
	return &PermQuorum{n: n, d: d, seed: prng.DeriveKey(seed, "sampler/"+tag, 0)}
}

// N returns the node-domain size.
func (q *PermQuorum) N() int { return q.n }

// Size returns d, the quorum cardinality.
func (q *PermQuorum) Size() int { return q.d }

// Quorum returns { σ_{s,j}(x) : j < d }.
func (q *PermQuorum) Quorum(s bitstring.String, x int) []int {
	return q.QuorumAppend(make([]int, 0, q.d), s, x)
}

// QuorumAppend appends Quorum(s, x) to dst.
func (q *PermQuorum) QuorumAppend(dst []int, s bitstring.String, x int) []int {
	h := s.Hash64()
	for j := 0; j < q.d; j++ {
		p := q.perm(h, j)
		dst = append(dst, p.Apply(x))
	}
	return dst
}

// Inverse returns { σ_{s,j}^{-1}(y) : j < d }: the nodes whose quorum for s
// contains y. Its length is always exactly d — the deterministic
// no-overload guarantee of this construction.
func (q *PermQuorum) Inverse(s bitstring.String, y int) []int {
	h := s.Hash64()
	out := make([]int, q.d)
	for j := range out {
		p := q.perm(h, j)
		out[j] = p.Invert(y)
	}
	return out
}

// Contains reports whether y ∈ Quorum(s, x) in O(d) time.
func (q *PermQuorum) Contains(s bitstring.String, x, y int) bool {
	h := s.Hash64()
	for j := 0; j < q.d; j++ {
		p := q.perm(h, j)
		if p.Apply(x) == y {
			return true
		}
	}
	return false
}

// perm returns σ_{s,j}, the j-th permutation keyed by the string hash h,
// built by value on the caller's stack.
func (q *PermQuorum) perm(h uint64, j int) prng.Perm {
	return prng.MakePerm(q.n, prng.Hash3(q.seed, h, uint64(j)))
}

// HashQuorum is a naive sampler that draws each quorum member independently
// by hashing (s, x, j). It does NOT guarantee the no-overload condition of
// Lemma 1 — a node may sit in far more than d quorums for some string — and
// exists as the ablation baseline quantifying what the permutation
// construction buys (experiment E12 companion; see also TestHashQuorumCanOverload).
type HashQuorum struct {
	n, d int
	seed uint64
}

var _ Quorum = (*HashQuorum)(nil)

// NewHashQuorum returns the naive independent-hash sampler.
func NewHashQuorum(n, d int, seed uint64, tag string) *HashQuorum {
	if n <= 0 || d <= 0 {
		panic(fmt.Sprintf("sampler: invalid HashQuorum geometry n=%d d=%d", n, d))
	}
	return &HashQuorum{n: n, d: d, seed: prng.DeriveKey(seed, "sampler/hash/"+tag, 0)}
}

// N returns the node-domain size.
func (q *HashQuorum) N() int { return q.n }

// Size returns d.
func (q *HashQuorum) Size() int { return q.d }

// Quorum returns the d independently hashed members for (s, x).
func (q *HashQuorum) Quorum(s bitstring.String, x int) []int {
	return q.QuorumAppend(make([]int, 0, q.d), s, x)
}

// QuorumAppend appends Quorum(s, x) to dst.
func (q *HashQuorum) QuorumAppend(dst []int, s bitstring.String, x int) []int {
	h := s.Hash64()
	for j := 0; j < q.d; j++ {
		dst = append(dst, int(prng.Hash4(q.seed, h, uint64(x), uint64(j))%uint64(q.n)))
	}
	return dst
}

// Inverse scans the whole domain — Θ(n·d). The naive construction has no
// efficient inverse; this is part of why the permutation sampler is used.
func (q *HashQuorum) Inverse(s bitstring.String, y int) []int {
	var out []int
	for x := 0; x < q.n; x++ {
		if q.Contains(s, x, y) {
			out = append(out, x)
		}
	}
	return out
}

// Contains reports whether y ∈ Quorum(s, x).
func (q *HashQuorum) Contains(s bitstring.String, x, y int) bool {
	h := s.Hash64()
	for j := 0; j < q.d; j++ {
		if int(prng.Hash4(q.seed, h, uint64(x), uint64(j))%uint64(q.n)) == y {
			return true
		}
	}
	return false
}
