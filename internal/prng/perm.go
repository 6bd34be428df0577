package prng

// Perm is a keyed pseudorandom permutation (PRP) on the domain [0, n).
//
// It is built as a 4-round Feistel network over [0, 2^k) with 2^k >= n,
// restricted to [0, n) by cycle walking: values that land outside the domain
// are re-encrypted until they fall inside. Because the Feistel network is a
// bijection on [0, 2^k), cycle walking yields a bijection on [0, n); the
// expected number of walks is below 4 since 2^k < 4n.
//
// The samplers in internal/sampler use Perm to realize quorum maps with
// *exactly* d quorum memberships per node (the "no overloaded node"
// condition of Lemma 1 holds deterministically) while keeping quorum
// composition pseudorandom.
//
// Perm is immutable after construction and safe for concurrent use.
type Perm struct {
	n        uint64
	halfBits uint
	halfMask uint64
	keys     [4]uint64
}

// feistelRounds is the number of Feistel rounds. Four rounds of a strong
// round function give a strong PRP (Luby–Rackoff); we only need statistical
// quality, not cryptographic strength.
const feistelRounds = 4

// NewPerm returns a PRP on [0, n) keyed by key. It panics if n <= 0 (domain
// construction is a programming error, not a runtime condition).
func NewPerm(n int, key uint64) *Perm {
	p := MakePerm(n, key)
	return &p
}

// MakePerm is NewPerm by value: callers that build a Perm per query (the
// stateless samplers in internal/sampler) keep it on the stack instead of
// allocating.
func MakePerm(n int, key uint64) Perm {
	if n <= 0 {
		panic("prng: NewPerm with non-positive domain")
	}
	// Find the smallest even bit-width 2*h with 2^(2h) >= n so the Feistel
	// halves are balanced.
	var h uint = 1
	for uint64(1)<<(2*h) < uint64(n) {
		h++
	}
	p := Perm{
		n:        uint64(n),
		halfBits: h,
		halfMask: (uint64(1) << h) - 1,
	}
	for i := range p.keys {
		p.keys[i] = Hash2(key, uint64(i)+0x51ed2701)
	}
	return p
}

// N returns the domain size.
func (p *Perm) N() int { return int(p.n) }

// Apply maps x through the permutation. It panics if x is outside [0, n).
func (p *Perm) Apply(x int) int {
	if x < 0 || uint64(x) >= p.n {
		panic("prng: Perm.Apply out of domain")
	}
	v := uint64(x)
	for {
		v = p.encryptOnce(v)
		if v < p.n {
			return int(v)
		}
	}
}

// Invert maps y back through the permutation: Invert(Apply(x)) == x.
// It panics if y is outside [0, n).
func (p *Perm) Invert(y int) int {
	if y < 0 || uint64(y) >= p.n {
		panic("prng: Perm.Invert out of domain")
	}
	v := uint64(y)
	for {
		v = p.decryptOnce(v)
		if v < p.n {
			return int(v)
		}
	}
}

func (p *Perm) encryptOnce(v uint64) uint64 {
	l := v >> p.halfBits
	r := v & p.halfMask
	for i := 0; i < feistelRounds; i++ {
		l, r = r, l^(Mix64(r^p.keys[i])&p.halfMask)
	}
	return l<<p.halfBits | r
}

func (p *Perm) decryptOnce(v uint64) uint64 {
	l := v >> p.halfBits
	r := v & p.halfMask
	for i := feistelRounds - 1; i >= 0; i-- {
		l, r = r^(Mix64(l^p.keys[i])&p.halfMask), l
	}
	return l<<p.halfBits | r
}
