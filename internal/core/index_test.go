package core

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/intern"
	"github.com/fastba/fastba/internal/prng"
)

// ints widens an index list for comparison with sampler output.
func ints(l []int32) []int {
	out := make([]int, len(l))
	for i, v := range l {
		out[i] = int(v)
	}
	return out
}

// TestIndexMatchesSamplers checks that the membership index answers every
// query exactly as the samplers it materialises: membership, the ordered
// distinct list and the distinct count, for H(s, x) and J(x, r). One index
// serves every generated query, so later queries also exercise entries
// built by earlier ones, row switches between strings, several labels per
// x (more than jCheckMax, so checks past the cap reach the sampler) and
// labels equal mod |R|. n = 100 spans four bitset words.
func TestIndexMatchesSamplers(t *testing.T) {
	p := DefaultParams(100)
	smp := NewSamplers(p)
	const self = 7
	ix := newMemberIndex(self, p.N, smp)
	var strs intern.Table
	pool := make([]bitstring.String, 5)
	src := prng.New(3)
	for i := range pool {
		pool[i] = bitstring.Random(src, p.StringBits)
	}
	sameH := func(e int32, s bitstring.String, x, y int) bool {
		want := distinct(smp.H.Quorum(s, x))
		return ix.has(e, y) == smp.H.Contains(s, x, y) &&
			slices.Equal(ints(ix.list(e)), want) &&
			ix.size(e) == len(want) && ix.hCount(s, x) == len(want)
	}
	h := func(k, x8, y8 uint8) bool {
		s := pool[int(k)%len(pool)]
		x, y := int(x8)%p.N, int(y8)%p.N
		sid := strs.ID(s)
		return sameH(ix.h(sid, s, x), s, x, y) && sameH(ix.hSelf(sid, s), s, self, y)
	}
	if err := quick.Check(h, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal("H:", err)
	}
	j := func(x8, r8, w8, wrap uint8) bool {
		x, w := int(x8)%p.N, int(w8)%p.N
		r := uint64(r8%8)*7919 + uint64(wrap%2)*p.Labels
		if ix.hasJ(x, r, w) != smp.J.Contains(x, r, w) {
			return false
		}
		e := ix.j(x, r)
		want := smp.J.List(x, r)
		return ix.has(e, w) == smp.J.Contains(x, r, w) &&
			slices.Equal(ints(ix.list(e)), want) &&
			ix.size(e) == len(want)
	}
	if err := quick.Check(j, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal("J:", err)
	}
}

// attemptSamplers builds the samplers of reopen attempt k the way the
// decision log's MuxNode does: the base geometry under an attempt-salted
// sampler seed.
func attemptSamplers(p Params, attempt uint32) *Samplers {
	p.SamplerSeed = prng.Hash2(p.SamplerSeed, uint64(attempt))
	return NewSamplers(p)
}

// TestResetDropsIndexOfOldSamplers checks that a node reset with
// attempt-salted samplers answers from the new samplers, not from entries
// it materialised under the previous attempt's geometry.
func TestResetDropsIndexOfOldSamplers(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	nd := newTestNode(5, s, p, smp)
	const r = 77
	for x := 0; x < p.N; x++ {
		nd.idx.h(nd.sthisID, s, x)
		nd.idx.j(x, r)
	}
	nd.idx.hSelf(nd.sthisID, s)
	next := attemptSamplers(p, 1)
	nd.Reset(s, next, prng.New(9))
	differs := 0
	for x := 0; x < p.N; x++ {
		he := nd.idx.h(nd.sthisID, s, x)
		if got, want := ints(nd.idx.list(he)), distinct(next.H.Quorum(s, x)); !slices.Equal(got, want) {
			t.Fatalf("after Reset, H(s, %d) = %v, want the new samplers' %v", x, got, want)
		}
		je := nd.idx.j(x, r)
		if got, want := ints(nd.idx.list(je)), next.J.List(x, r); !slices.Equal(got, want) {
			t.Fatalf("after Reset, J(%d, r) = %v, want the new samplers' %v", x, got, want)
		}
		if !slices.Equal(distinct(smp.H.Quorum(s, x)), distinct(next.H.Quorum(s, x))) {
			differs++
		}
	}
	if got, want := ints(nd.idx.list(nd.idx.hSelf(nd.sthisID, s))), distinct(next.H.Quorum(s, 5)); !slices.Equal(got, want) {
		t.Fatalf("after Reset, H(s, this) = %v, want the new samplers' %v", got, want)
	}
	if differs == 0 {
		t.Fatal("attempt salt left every quorum unchanged; the test proves nothing")
	}
}

// fw1Pass lists every valid Fw1 that node z receives in an honest instance
// for string s: for each requester x with a label derived from seed, each
// w ∈ J(x, r) whose pull quorum H(s, w) holds z, one Fw1 from every member
// of H(s, x).
func fw1Pass(p Params, smp *Samplers, s bitstring.String, z int, seed uint64) []fw1Delivery {
	var pass []fw1Delivery
	for x := 0; x < p.N; x++ {
		r := prng.Hash2(seed, uint64(x)) % p.Labels
		for _, w := range smp.J.List(x, r) {
			if !smp.H.Contains(s, w, z) {
				continue
			}
			for _, y := range distinct(smp.H.Quorum(s, x)) {
				pass = append(pass, fw1Delivery{from: y, msg: MsgFw1{X: x, S: s, R: r, W: w}})
			}
		}
	}
	return pass
}

type fw1Delivery struct {
	from int
	msg  MsgFw1
}

// indexFootprint returns the bytes a node's membership index holds.
func indexFootprint(ix *memberIndex) int {
	b := 4*cap(ix.row) + 8*cap(ix.selfs) + 4*cap(ix.jhead) + 8*cap(ix.scratch)
	for _, c := range ix.chunks {
		b += 4 * cap(c)
	}
	return b
}

// TestIndexBoundedAcrossResets recycles one pooled node through 1000
// instances, each with a fresh string (as every log entry brings one), and
// checks that its index never holds more than the largest footprint a
// fresh node reaches on any single one of those instances: Reset keeps and
// reuses the slab, and nothing accumulates across instances. Once the slab
// is warm, rebuilding an instance's index allocates nothing.
func TestIndexBoundedAcrossResets(t *testing.T) {
	const z, instances = 3, 1000
	p := DefaultParams(24)
	smp := NewSamplers(p)
	src := prng.New(11)
	var ctx nopCtx
	run := func(nd *Node, pass []fw1Delivery) {
		for _, d := range pass {
			nd.Deliver(ctx, d.from, d.msg)
		}
	}
	pooled := NewNode(z, bitstring.String{}, p, smp, prng.New(1))
	peak := 0
	for i := 0; i < instances; i++ {
		s := bitstring.Random(src, p.StringBits)
		pass := fw1Pass(p, smp, s, z, uint64(i))
		fresh := NewNode(z, s, p, smp, prng.New(1))
		run(fresh, pass)
		peak = max(peak, indexFootprint(&fresh.idx))

		pooled.Reset(s, smp, prng.New(1))
		run(pooled, pass)
	}
	if got := indexFootprint(&pooled.idx); got > peak {
		t.Fatalf("pooled index holds %d B after %d resets, single-instance peak is %d B", got, instances, peak)
	}

	s := bitstring.Random(src, p.StringBits)
	keys := fw1Pass(p, smp, s, z, 0)
	allocs := testing.AllocsPerRun(20, func() {
		pooled.idx.reset(smp)
		for _, d := range keys {
			pooled.idx.h(0, s, d.msg.W)
			pooled.idx.h(0, s, d.msg.X)
			pooled.idx.hasJ(d.msg.X, d.msg.R, d.msg.W)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm index rebuild allocates %.0f times per instance, want 0", allocs)
	}
}

// TestIndexBoundedUnderFlood has one Byzantine peer y deliver 10^5 Fw1 and
// 10^5 Fw2 with distinct labels, all passing every check but the poll-list
// one, plus Fw2 for 500 strings it made up and had interned by a Poll. The
// sender writes X, R and S, so none of this may grow the index: it must
// stay within what an honest instance can build (an H(s_this, ·) row, the
// candidate's H(s, this), the node's own poll and jCheckMax check labels
// per x), and every answer must still be the sampler's.
func TestIndexBoundedUnderFlood(t *testing.T) {
	const z, flood = 3, 100_000
	p, smp, s := testSetup(t, 24)
	nd := newTestNode(z, s, p, smp)
	nd.Init(nopCtx{})
	var y int
	for _, y = range distinct(smp.H.Quorum(s, z)) {
		if y != z {
			break
		}
	}
	xs, ws := distinct(smp.H.Inverse(s, y)), distinct(smp.H.Inverse(s, z))
	ctx := &fakeCtx{}
	for i := 0; i < flood; i++ {
		r := uint64(i) * 7
		nd.Deliver(ctx, y, MsgFw1{X: xs[i%len(xs)], S: s, R: r, W: ws[i%len(ws)]})
		nd.Deliver(ctx, y, MsgFw2{X: i % p.N, S: s, R: r})
	}
	src := prng.New(5)
	rPoll := findLabelWith(t, smp, p.Labels, y, z)
	for made := 0; made < 500; {
		junk := bitstring.Random(src, p.StringBits)
		if !smp.H.Contains(junk, z, y) {
			continue
		}
		made++
		nd.Deliver(ctx, y, MsgPoll{S: junk, R: rPoll})
		for i := 0; i < 4; i++ {
			nd.Deliver(ctx, y, MsgFw2{X: i, S: junk, R: uint64(i)})
		}
	}
	if bound := p.N + 1 + 1 + p.N*jCheckMax; nd.idx.entries > bound {
		t.Fatalf("flood left %d index entries, an instance holds at most %d", nd.idx.entries, bound)
	}
	for x := 0; x < p.N; x++ {
		for i := 0; i < 50; i++ {
			r, w := uint64(i)*7, (x+i)%p.N
			if nd.idx.hasJ(x, r, w) != smp.J.Contains(x, r, w) {
				t.Fatalf("after the flood, hasJ(%d, %d, %d) disagrees with the sampler", x, r, w)
			}
		}
	}
}
