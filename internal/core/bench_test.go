package core

import (
	"testing"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// nopCtx discards sends: the Fw1 benchmark measures the receiving node,
// not the transport.
type nopCtx struct{}

func (nopCtx) Now() int                           { return 0 }
func (nopCtx) Send(simnet.NodeID, simnet.Message) {}

// BenchmarkNodeDeliverFw1 measures core.Node.Deliver on the Fw1 path, the
// message kind that dominates a committed entry (about 90% of its
// messages at n = 24). One pass replays every valid Fw1 one node receives
// in an honest instance — for each requester x with label r, each w ∈
// J(x, r) whose pull quorum H(s, w) holds the node, one Fw1 from every
// member of H(s, x) — and a Reset between passes starts the next instance,
// so ns/op is the per-delivery cost including whatever per-instance state
// the node builds and discards.
func BenchmarkNodeDeliverFw1(b *testing.B) {
	const n, z = 24, 0
	p := DefaultParams(n)
	smp := NewSamplers(p)
	s := bitstring.Random(prng.New(42), p.StringBits)
	pass := fw1Pass(p, smp, s, z, 7)
	if len(pass) == 0 {
		b.Fatal("node receives no Fw1 in this geometry")
	}
	node := NewNode(z, s, p, smp, prng.New(1))
	var ctx nopCtx
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pass)
		if k == 0 && i > 0 {
			node.Reset(s, smp, prng.New(1))
		}
		node.Deliver(ctx, pass[k].from, pass[k].msg)
	}
}
