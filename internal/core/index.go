package core

import (
	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/intern"
)

// memberIndex is a node's materialised view of the Pull Quorums H(s, x)
// and Poll Lists J(x, r) it queries. The pull phase checks every Fw1 and
// Fw2 against both samplers, and each (s, x) or (x, r) is checked once per
// voucher — d times per instance — while the sampler answers each query by
// evaluating up to d keyed permutations. The index evaluates each sample
// once, on first use, and answers every later query from memory.
//
// An entry holds the sample's distinct members in first-seen order (the
// order the fan-out paths send in), their count (the Algorithm 2/3
// threshold denominator) and a bitset over [n] for O(1) membership. Every
// entry has the same stride in a slab of fixed-size chunks: entries never
// move, so listed members stay valid while later queries materialise more,
// and growing the slab copies nothing.
//
// What gets an entry is bounded by the protocol, never by what peers send:
//
//   - H(s_this, x) for every x, in one row of n slots. Only the string the
//     node believes is queried at x ≠ this (onFw1, forwardPull), and it
//     changes at most once per instance, on decision.
//   - H(s, this) for the strings on the node's candidate list, which the
//     push-quorum majority bounds (Lemma 4).
//   - J(x, r) for the polls the node fans out: its own, one per candidate,
//     and one per (x, s_this) it forwards.
//   - J(x, r) for membership checks, at most jCheckMax labels per x. The
//     sender of an Fw1 or Fw2 writes r, so further labels of the same x
//     are checked against the sampler and cost no memory.
//
// An instance therefore holds O(n) entries whatever Byzantine peers send.
//
// Ownership and lifetime: the index belongs to one Node, is touched only
// on that node's delivery goroutine (no locks), and describes exactly the
// samplers the node was built or last Reset with. Reset clears it, so an
// index lives as long as one instance attempt. Reset keeps the chunks, so
// a pooled node rebuilds its index each instance without allocating once
// the slab has reached the instance's size.
type memberIndex struct {
	smp    *Samplers
	self   int
	n      int
	d      int // member slots per entry: the larger sampler size
	stride int // int32 slots per entry: header, d members, ⌈n/32⌉ bitset words

	// row[x] is 1 + the entry of H(rowSID, x), 0 if not built yet.
	row    []int32
	rowSID intern.ID
	// selfs lists the built H(s, this) entries of candidate strings.
	selfs []selfEntry
	// jhead[x] is 1 + the newest J entry of requester x, 0 if none; the
	// entries of one x chain through their next slot.
	jhead []int32

	chunks  [][]int32 // chunkEntries entries each
	entries int       // entries in use
	scratch []int     // sampling buffer for materialisation
}

type selfEntry struct {
	sid intern.ID
	e   int32
}

// jCheckMax is the number of labels per requester x whose J(x, r) a
// membership check materialises. A correct requester polls with one label
// per candidate string.
const jCheckMax = 4

// chunkEntries is the number of entries per slab chunk.
const chunkEntries = 64

// Entry layout, in int32 slots from the entry's base.
const (
	slotSize    = iota // distinct member count
	slotNext           // J entries: 1 + the next entry of the same x
	slotLabelLo        // J entries: the label r mod |R|
	slotLabelHi
	slotMembers // d member slots, then the bitset words
)

func newMemberIndex(self, n int, smp *Samplers) memberIndex {
	d := max(smp.H.Size(), smp.J.Size())
	return memberIndex{
		smp: smp, self: self, n: n, d: d,
		stride: slotMembers + d + (n+31)/32,
		row:    make([]int32, n),
		rowSID: intern.None,
		jhead:  make([]int32, n),
	}
}

// reset forgets every entry, keeping the slab, and takes smp as the
// samplers of the next instance. The sampler geometry, and with it the
// entry stride, is fixed for the node's lifetime (Node.Reset).
func (ix *memberIndex) reset(smp *Samplers) {
	ix.smp = smp
	clear(ix.row)
	ix.rowSID = intern.None
	ix.selfs = ix.selfs[:0]
	clear(ix.jhead)
	ix.entries = 0
}

// h returns the entry of H(s, x) for the node's believed string s_this,
// materialising it on first use. sid must be s_this's interned ID and x
// must lie in [0, n). A new s_this replaces the previous string's row.
func (ix *memberIndex) h(sid intern.ID, s bitstring.String, x int) int32 {
	if sid != ix.rowSID {
		clear(ix.row)
		ix.rowSID = sid
	}
	if e := ix.row[x]; e > 0 {
		return e - 1
	}
	e, _ := ix.add(ix.smp.H.QuorumAppend(ix.scratch[:0], s, x))
	ix.row[x] = e + 1
	return e
}

// hSelf returns the entry of H(s, this) for a string s on the node's
// candidate list, materialising it on first use.
func (ix *memberIndex) hSelf(sid intern.ID, s bitstring.String) int32 {
	for _, se := range ix.selfs {
		if se.sid == sid {
			return se.e
		}
	}
	e, _ := ix.add(ix.smp.H.QuorumAppend(ix.scratch[:0], s, ix.self))
	ix.selfs = append(ix.selfs, selfEntry{sid: sid, e: e})
	return e
}

// hCount returns |distinct H(s, x)| straight from the sampler, for the
// strings the index does not hold.
func (ix *memberIndex) hCount(s bitstring.String, x int) int {
	ix.scratch = ix.smp.H.QuorumAppend(ix.scratch[:0], s, x)
	return countDistinct(ix.scratch)
}

// j returns the entry of J(x, r) for a poll the node fans out,
// materialising it on first use. x must lie in [0, n).
func (ix *memberIndex) j(x int, r uint64) int32 {
	if e, _ := ix.findJ(x, r); e >= 0 {
		return e
	}
	return ix.addJ(x, r)
}

// hasJ reports whether w ∈ J(x, r) for a membership check. Beyond
// jCheckMax labels of x it asks the sampler instead of materialising.
// x and w must lie in [0, n).
func (ix *memberIndex) hasJ(x int, r uint64, w int) bool {
	e, chain := ix.findJ(x, r)
	if e < 0 {
		if chain >= jCheckMax {
			return ix.smp.J.Contains(x, r, w)
		}
		e = ix.addJ(x, r)
	}
	return ix.has(e, w)
}

// findJ returns the entry of J(x, r), or -1 with the length of x's chain.
// Labels are compared mod |R|, the key J itself reduces them by.
func (ix *memberIndex) findJ(x int, r uint64) (int32, int) {
	r %= ix.smp.J.Labels()
	chain := 0
	for e := ix.jhead[x]; e > 0; chain++ {
		en := ix.slots(e - 1)
		if uint64(uint32(en[slotLabelLo]))|uint64(uint32(en[slotLabelHi]))<<32 == r {
			return e - 1, chain
		}
		e = en[slotNext]
	}
	return -1, chain
}

// addJ materialises J(x, r) at the head of x's chain.
func (ix *memberIndex) addJ(x int, r uint64) int32 {
	r %= ix.smp.J.Labels()
	ix.scratch = ix.smp.J.ListAppend(ix.scratch[:0], x, r)
	e, en := ix.add(ix.scratch)
	en[slotNext] = ix.jhead[x]
	en[slotLabelLo], en[slotLabelHi] = int32(uint32(r)), int32(uint32(r>>32))
	ix.jhead[x] = e + 1
	return e
}

// add stores the distinct members of sample in a new entry and returns it
// with its slots. sample may alias ix.scratch, which add keeps for reuse.
func (ix *memberIndex) add(sample []int) (int32, []int32) {
	ix.scratch = sample
	e := ix.entries
	if e/chunkEntries == len(ix.chunks) {
		ix.chunks = append(ix.chunks, make([]int32, chunkEntries*ix.stride))
	}
	ix.entries++
	en := ix.slots(int32(e))
	clear(en)
	members, set := en[slotMembers:slotMembers+ix.d], en[slotMembers+ix.d:]
	size := 0
	for _, y := range sample {
		if w, b := y>>5, int32(1)<<(y&31); set[w]&b == 0 {
			set[w] |= b
			members[size] = int32(y)
			size++
		}
	}
	en[slotSize] = int32(size)
	return int32(e), en
}

// slots returns entry e's int32 slots.
func (ix *memberIndex) slots(e int32) []int32 {
	base := int(e%chunkEntries) * ix.stride
	return ix.chunks[e/chunkEntries][base : base+ix.stride : base+ix.stride]
}

// has reports whether y is a member of entry e; y must lie in [0, n).
func (ix *memberIndex) has(e int32, y int) bool {
	base := int(e%chunkEntries)*ix.stride + slotMembers + ix.d
	return ix.chunks[e/chunkEntries][base+y>>5]&(int32(1)<<(y&31)) != 0
}

// list returns entry e's distinct members in first-seen order. The slice
// aliases the slab, which never moves: it stays valid while later queries
// materialise more entries. Callers must not modify it.
func (ix *memberIndex) list(e int32) []int32 {
	en := ix.slots(e)
	return en[slotMembers : slotMembers+en[slotSize]]
}

// size returns entry e's distinct member count.
func (ix *memberIndex) size(e int32) int { return int(ix.slots(e)[slotSize]) }
