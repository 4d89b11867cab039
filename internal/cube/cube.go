// Package cube implements multi-valued cube algebra in positional
// (espresso-internal) notation.
//
// A Domain describes an ordered list of variables; each variable has a fixed
// number of values (a binary variable has two). A Cube assigns every
// variable a non-empty subset of its values, encoded as a bit-field packed
// into []uint64 words: bit set means "this value is allowed". A binary
// variable's field therefore reads as
//
//	01 -> literal 0, 10 -> literal 1, 11 -> don't care, 00 -> empty
//
// and a symbolic (multi-valued) variable of k values is a k-bit subset.
// A cube denotes the set of minterms whose every variable takes one of the
// allowed values; a cube with any empty field denotes the empty set.
//
// This is the exact representation used inside Berkeley espresso, which
// makes intersection a bitwise AND, the supercube a bitwise OR, and
// containment a bitwise subset test. Multi-output functions are modeled by
// appending one multi-valued variable whose values are the outputs.
package cube

import (
	"fmt"
	"math/bits"
	"strings"
)

// Lit is the classical three-valued literal of a binary variable.
type Lit uint8

// Literal values of a binary variable inside a cube.
const (
	LitEmpty Lit = iota // no value allowed: the cube is empty
	LitZero             // the variable must be 0
	LitOne              // the variable must be 1
	LitDC               // don't care: 0 or 1
)

// String returns the PLA character for the literal.
func (l Lit) String() string {
	switch l {
	case LitZero:
		return "0"
	case LitOne:
		return "1"
	case LitDC:
		return "-"
	default:
		return "~"
	}
}

// wordSpan locates one variable's bit-field inside the word array.
type wordSpan struct {
	word int
	mask uint64
}

// Domain describes the variables over which cubes are formed. A Domain is
// immutable after creation and safe for concurrent use.
type Domain struct {
	sizes  []int
	offs   []int // starting bit of each variable
	nbits  int
	nwords int
	bitVar []int // owning variable per absolute bit
	layout Layout
}

// Layout is a domain's fields as flat word masks over all of its words,
// built once in New. Every cube operation runs over it, and kernels that
// keep cubes as rows of Words() words in one arena (the tautology kernel
// in internal/cover) read it directly. Callers must not modify it.
type Layout struct {
	K    int      // words per row: Domain.Words
	Full []uint64 // the universe, K words
	// Mask holds every variable's field mask over all K words: variable
	// v's is Mask[v*K : (v+1)*K], non-zero only in words Lo[v]..Hi[v].
	Mask   []uint64
	Lo, Hi []int
	// Pair holds, per word, the low bit of every binary field lying
	// wholly inside that word, so one expression tests all of them:
	// such a field of x is non-empty iff its bit is set in x|x>>1, and
	// full iff it is set in x&x>>1.
	Pair []uint64
	// Rest lists the variables Pair does not cover: multi-valued and
	// one-valued fields, and binary fields straddling a word boundary.
	Rest []int
}

// New creates a domain with the given number of values per variable.
// Every size must be at least 1 (a 1-valued variable is degenerate but
// legal; it carries no information).
func New(sizes ...int) *Domain {
	d := &Domain{sizes: append([]int(nil), sizes...)}
	d.offs = make([]int, len(sizes))
	for i, s := range sizes {
		if s < 1 {
			panic(fmt.Sprintf("cube: variable %d has size %d", i, s))
		}
		d.offs[i] = d.nbits
		d.nbits += s
	}
	d.nwords = (d.nbits + 63) / 64
	if d.nwords == 0 {
		d.nwords = 1
	}
	d.bitVar = make([]int, d.nbits)
	for v := range sizes {
		for val := 0; val < d.sizes[v]; val++ {
			d.bitVar[d.offs[v]+val] = v
		}
	}
	k := d.nwords
	l := &d.layout
	l.K = k
	l.Full = make([]uint64, k)
	l.Mask = make([]uint64, len(sizes)*k)
	l.Lo = make([]int, len(sizes))
	l.Hi = make([]int, len(sizes))
	l.Pair = make([]uint64, k)
	for v := range sizes {
		sp := spansFor(d.offs[v], sizes[v])
		for _, s := range sp {
			l.Mask[v*k+s.word] = s.mask
			l.Full[s.word] |= s.mask
		}
		l.Lo[v], l.Hi[v] = sp[0].word, sp[len(sp)-1].word
		if off := d.offs[v]; sizes[v] == 2 && off%64 != 63 {
			l.Pair[off/64] |= 1 << (off % 64)
		} else {
			l.Rest = append(l.Rest, v)
		}
	}
	return d
}

// Layout returns the domain's flat word-mask layout. It is shared and
// must not be modified.
func (d *Domain) Layout() *Layout { return &d.layout }

// Meets reports whether every field of a∩b holds at least one value,
// without materializing the intersection.
//
//picola:hot
func (l *Layout) Meets(a, b []uint64) bool {
	for w, p := range l.Pair {
		x := a[w] & b[w]
		if (x|x>>1)&p != p {
			return false
		}
	}
	for _, v := range l.Rest {
		if !l.PartMeets(a, b, v) {
			return false
		}
	}
	return true
}

// PartMeets reports whether a∩b holds at least one value of variable v.
//
//picola:hot
func (l *Layout) PartMeets(a, b []uint64, v int) bool {
	m := l.Mask[v*l.K:]
	for w := l.Lo[v]; w <= l.Hi[v]; w++ {
		if a[w]&b[w]&m[w] != 0 {
			return true
		}
	}
	return false
}

// Binary creates a domain of n binary variables.
func Binary(n int) *Domain {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 2
	}
	return New(sizes...)
}

// WithOutputs creates a domain of n binary input variables followed by one
// multi-valued output variable of m values. This is the standard espresso
// layout for an n-input, m-output function.
func WithOutputs(n, m int) *Domain {
	sizes := make([]int, n+1)
	for i := 0; i < n; i++ {
		sizes[i] = 2
	}
	sizes[n] = m
	return New(sizes...)
}

func spansFor(off, size int) []wordSpan {
	var out []wordSpan
	bit := off
	end := off + size
	for bit < end {
		w := bit / 64
		lo := bit % 64
		hi := 64
		if end-w*64 < 64 {
			hi = end - w*64
		}
		var m uint64
		if hi-lo == 64 {
			m = ^uint64(0)
		} else {
			m = ((uint64(1) << (hi - lo)) - 1) << lo
		}
		out = append(out, wordSpan{w, m})
		bit = w*64 + hi
	}
	return out
}

// NumVars returns the number of variables.
func (d *Domain) NumVars() int { return len(d.sizes) }

// VarOfBit returns the variable owning the absolute bit index.
func (d *Domain) VarOfBit(bit int) int { return d.bitVar[bit] }

// BitOf returns the absolute bit index of value val of variable v.
func (d *Domain) BitOf(v, val int) int { return d.offs[v] + val }

// Size returns the number of values of variable v.
func (d *Domain) Size(v int) int { return d.sizes[v] }

// Sizes returns a copy of the per-variable value counts.
func (d *Domain) Sizes() []int { return append([]int(nil), d.sizes...) }

// Bits returns the total number of bits of a cube in this domain.
func (d *Domain) Bits() int { return d.nbits }

// Words returns the number of uint64 words backing a cube.
func (d *Domain) Words() int { return d.nwords }

// Cube is a positional-notation cube. Its length equals Domain.Words() for
// the domain it belongs to. The zero-length Cube is not valid; obtain cubes
// from Domain methods or Clone.
type Cube []uint64

// NewCube returns a cube with every field empty (the empty set).
func (d *Domain) NewCube() Cube { return make(Cube, d.nwords) }

// Universe returns the cube allowing every value of every variable.
func (d *Domain) Universe() Cube {
	c := d.NewCube()
	copy(c, d.layout.Full)
	return c
}

// Clone returns a copy of c.
func (c Cube) Clone() Cube { return append(Cube(nil), c...) }

// CopyInto copies src into dst, which must have the same length.
func CopyInto(dst, src Cube) { copy(dst, src) }

// Equal reports whether a and b are bit-identical.
func Equal(a, b Cube) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Has reports whether value val of variable v is allowed in c.
func (d *Domain) Has(c Cube, v, val int) bool {
	bit := d.offs[v] + val
	return c[bit/64]&(1<<(bit%64)) != 0
}

// Set allows value val of variable v in c.
func (d *Domain) Set(c Cube, v, val int) {
	bit := d.offs[v] + val
	c[bit/64] |= 1 << (bit % 64)
}

// ClearVal disallows value val of variable v in c.
func (d *Domain) ClearVal(c Cube, v, val int) {
	bit := d.offs[v] + val
	c[bit/64] &^= 1 << (bit % 64)
}

// SetAll allows every value of variable v in c (a full field).
func (d *Domain) SetAll(c Cube, v int) {
	l := &d.layout
	m := l.Mask[v*l.K:]
	for w := l.Lo[v]; w <= l.Hi[v]; w++ {
		c[w] |= m[w]
	}
}

// ClearAll disallows every value of variable v in c (an empty field).
func (d *Domain) ClearAll(c Cube, v int) {
	l := &d.layout
	m := l.Mask[v*l.K:]
	for w := l.Lo[v]; w <= l.Hi[v]; w++ {
		c[w] &^= m[w]
	}
}

// Restrict sets variable v of c to exactly the single value val.
func (d *Domain) Restrict(c Cube, v, val int) {
	d.ClearAll(c, v)
	d.Set(c, v, val)
}

// PartEmpty reports whether variable v's field in c is empty.
//
//picola:hot
func (d *Domain) PartEmpty(c Cube, v int) bool {
	return !d.layout.PartMeets(c, c, v)
}

// PartFull reports whether variable v's field in c allows every value.
//
//picola:hot
func (d *Domain) PartFull(c Cube, v int) bool {
	l := &d.layout
	m := l.Mask[v*l.K:]
	for w := l.Lo[v]; w <= l.Hi[v]; w++ {
		if c[w]&m[w] != m[w] {
			return false
		}
	}
	return true
}

// PartCount returns the number of allowed values of variable v in c.
//
//picola:hot
func (d *Domain) PartCount(c Cube, v int) int {
	l := &d.layout
	m := l.Mask[v*l.K:]
	n := 0
	for w := l.Lo[v]; w <= l.Hi[v]; w++ {
		n += bits.OnesCount64(c[w] & m[w])
	}
	return n
}

// PartValues returns the allowed values of variable v in c, ascending.
func (d *Domain) PartValues(c Cube, v int) []int {
	var out []int
	for val := 0; val < d.sizes[v]; val++ {
		if d.Has(c, v, val) {
			out = append(out, val)
		}
	}
	return out
}

// BinLit returns the literal of binary variable v in c. It panics if the
// variable is not binary.
func (d *Domain) BinLit(c Cube, v int) Lit {
	if d.sizes[v] != 2 {
		panic(fmt.Sprintf("cube: BinLit on %d-valued variable %d", d.sizes[v], v))
	}
	has0 := d.Has(c, v, 0)
	has1 := d.Has(c, v, 1)
	switch {
	case has0 && has1:
		return LitDC
	case has0:
		return LitZero
	case has1:
		return LitOne
	default:
		return LitEmpty
	}
}

// SetBinLit sets binary variable v of c to the literal l.
func (d *Domain) SetBinLit(c Cube, v int, l Lit) {
	d.ClearAll(c, v)
	switch l {
	case LitZero:
		d.Set(c, v, 0)
	case LitOne:
		d.Set(c, v, 1)
	case LitDC:
		d.Set(c, v, 0)
		d.Set(c, v, 1)
	}
}

// IsEmpty reports whether c denotes the empty set, i.e. whether any
// variable's field is empty.
//
//picola:hot
func (d *Domain) IsEmpty(c Cube) bool {
	return !d.layout.Meets(c, c)
}

// Intersect stores a AND b into dst and reports whether the result is a
// non-empty cube. dst may alias a or b.
//
//picola:hot
func (d *Domain) Intersect(dst, a, b Cube) bool {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
	return d.layout.Meets(dst, dst)
}

// Intersects reports whether a and b have a non-empty intersection without
// materializing it.
//
//picola:hot
func (d *Domain) Intersects(a, b Cube) bool {
	return d.layout.Meets(a, b)
}

// Supercube stores into dst the smallest cube containing both a and b
// (bitwise OR). dst may alias a or b.
//
//picola:hot
func (d *Domain) Supercube(dst, a, b Cube) {
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
}

// Contains reports whether a contains b as sets, i.e. b's allowed values are
// a subset of a's in every variable. Both cubes must be non-empty for the
// set interpretation to be meaningful.
//
//picola:hot
func (d *Domain) Contains(a, b Cube) bool {
	for i := range a {
		if b[i]&^a[i] != 0 {
			return false
		}
	}
	return true
}

// Distance returns the number of variables in which a and b share no value.
// Distance 0 means the cubes intersect.
//
//picola:hot
func (d *Domain) Distance(a, b Cube) int {
	l := &d.layout
	n := 0
	for w, p := range l.Pair {
		x := a[w] & b[w]
		n += bits.OnesCount64(p &^ (x | x>>1))
	}
	for _, v := range l.Rest {
		if !l.PartMeets(a, b, v) {
			n++
		}
	}
	return n
}

// Cofactor stores into dst the cofactor of c with respect to p (the Shannon
// cofactor generalized to cubes): for every variable the field becomes
// c ∪ ¬p. It reports false, leaving dst unspecified, when c and p do not
// intersect (the cofactor is empty). dst may alias c but not p.
//
//picola:hot
func (d *Domain) Cofactor(dst, c, p Cube) bool {
	l := &d.layout
	if !l.Meets(c, p) {
		return false
	}
	for w, m := range l.Full {
		dst[w] = dst[w]&^m | (c[w]|^p[w])&m
	}
	return true
}

// Consensus stores into dst the consensus (star product) of a and b and
// reports whether it exists. The consensus is defined for cubes at distance
// exactly 1: the single conflicting variable's field becomes a ∪ b and
// every other field a ∩ b. At any other distance there is no consensus and
// false is returned with dst unspecified. dst must not alias a or b.
//
//picola:hot
func (d *Domain) Consensus(dst, a, b Cube) bool {
	l := &d.layout
	// The conflicting field is either one binary field of Pair, held as
	// its word and two-bit mask, or the variable conflict of Rest.
	n, conflict := 0, -1
	cw, cm := 0, uint64(0)
	for w, p := range l.Pair {
		x := a[w] & b[w]
		if e := p &^ (x | x>>1); e != 0 {
			if n += bits.OnesCount64(e); n > 1 {
				return false
			}
			cw, cm = w, e|e<<1
		}
	}
	for _, v := range l.Rest {
		if !l.PartMeets(a, b, v) {
			if n++; n > 1 {
				return false
			}
			conflict = v
		}
	}
	if n == 0 {
		return false
	}
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
	// Every other field of dst is a non-empty a ∩ b, so dst is non-empty
	// iff the conflicting field of a ∪ b is.
	if conflict < 0 {
		dst[cw] |= (a[cw] | b[cw]) & cm
		return dst[cw]&cm != 0
	}
	m := l.Mask[conflict*l.K:]
	var hit uint64
	for w := l.Lo[conflict]; w <= l.Hi[conflict]; w++ {
		dst[w] |= (a[w] | b[w]) & m[w]
		hit |= dst[w] & m[w]
	}
	return hit != 0
}

// FullParts returns the number of variables whose field is full. For a cube
// over binary variables this is the cube's dimension (number of don't-care
// positions).
//
//picola:hot
func (d *Domain) FullParts(c Cube) int {
	l := &d.layout
	n := 0
	for w, p := range l.Pair {
		n += bits.OnesCount64(c[w] & (c[w] >> 1) & p)
	}
	for _, v := range l.Rest {
		if d.PartFull(c, v) {
			n++
		}
	}
	return n
}

// Literals returns the number of variables whose field is not full — the
// literal count of the cube as a product term.
func (d *Domain) Literals(c Cube) int {
	return d.NumVars() - d.FullParts(c)
}

// SetBits returns the total number of set bits in c. Espresso uses this as
// a secondary cost: among covers with equal cardinality, more set bits means
// larger cubes and usually fewer connections.
func SetBits(c Cube) int {
	n := 0
	for _, w := range c {
		n += bits.OnesCount64(w)
	}
	return n
}

// Minterms returns the number of minterms in c, saturating at
// math.MaxUint64. An empty cube has zero minterms.
func (d *Domain) Minterms(c Cube) uint64 {
	if d.IsEmpty(c) {
		return 0
	}
	// Each full binary field of Pair doubles the count; the rest of its
	// fields are single values.
	l := &d.layout
	free := 0
	for w, p := range l.Pair {
		free += bits.OnesCount64(c[w] & (c[w] >> 1) & p)
	}
	if free >= 64 {
		return ^uint64(0)
	}
	n := uint64(1) << free
	for _, v := range l.Rest {
		hi, lo := bits.Mul64(n, uint64(d.PartCount(c, v)))
		if hi != 0 {
			return ^uint64(0)
		}
		n = lo
	}
	return n
}

// ValueCube returns the cube that is the universe except that variable v is
// restricted to the single value val.
func (d *Domain) ValueCube(v, val int) Cube {
	c := d.Universe()
	d.Restrict(c, v, val)
	return c
}

// String renders c in the domain: binary variables as one character from
// {0,1,-,~}, multi-valued variables as their bit-string wrapped in
// brackets, fields separated for readability only where a multi-valued
// variable occurs.
func (d *Domain) String(c Cube) string {
	var sb strings.Builder
	for v := range d.sizes {
		if d.sizes[v] == 2 {
			sb.WriteString(d.BinLit(c, v).String())
			continue
		}
		sb.WriteByte('[')
		for val := 0; val < d.sizes[v]; val++ {
			if d.Has(c, v, val) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// Parse parses the String format back into a cube. Binary variables accept
// 0, 1, - or ~; a multi-valued variable of k values expects [k bits].
func (d *Domain) Parse(s string) (Cube, error) {
	c := d.NewCube()
	i := 0
	for v := range d.sizes {
		if d.sizes[v] == 2 {
			if i >= len(s) {
				return nil, fmt.Errorf("cube: input too short at variable %d", v)
			}
			switch s[i] {
			case '0':
				d.Set(c, v, 0)
			case '1':
				d.Set(c, v, 1)
			case '-', '2':
				d.Set(c, v, 0)
				d.Set(c, v, 1)
			case '~':
			default:
				return nil, fmt.Errorf("cube: bad literal %q at variable %d", s[i], v)
			}
			i++
			continue
		}
		if i >= len(s) || s[i] != '[' {
			return nil, fmt.Errorf("cube: expected '[' at variable %d", v)
		}
		i++
		for val := 0; val < d.sizes[v]; val++ {
			if i >= len(s) {
				return nil, fmt.Errorf("cube: input too short at variable %d", v)
			}
			switch s[i] {
			case '1':
				d.Set(c, v, val)
			case '0':
			default:
				return nil, fmt.Errorf("cube: bad bit %q at variable %d", s[i], v)
			}
			i++
		}
		if i >= len(s) || s[i] != ']' {
			return nil, fmt.Errorf("cube: expected ']' at variable %d", v)
		}
		i++
	}
	if i != len(s) {
		return nil, fmt.Errorf("cube: trailing input %q", s[i:])
	}
	return c, nil
}

// MustParse is Parse that panics on error; intended for tests and fixtures.
func (d *Domain) MustParse(s string) Cube {
	c, err := d.Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}
