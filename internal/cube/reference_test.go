package cube

import "math/bits"

// A plain per-value reference for every cube operation. Each reads and
// writes one value bit at a time through Has, Set and ClearVal, so none of
// it depends on Layout's masks; checkOpsMatchOracle runs the production
// operations against it.

func refPartEmpty(d *Domain, c Cube, v int) bool {
	return refPartCount(d, c, v) == 0
}

func refPartFull(d *Domain, c Cube, v int) bool {
	return refPartCount(d, c, v) == d.Size(v)
}

func refPartCount(d *Domain, c Cube, v int) int {
	n := 0
	for val := 0; val < d.Size(v); val++ {
		if d.Has(c, v, val) {
			n++
		}
	}
	return n
}

// refPartMeets reports whether a and b share a value of variable v.
func refPartMeets(d *Domain, a, b Cube, v int) bool {
	for val := 0; val < d.Size(v); val++ {
		if d.Has(a, v, val) && d.Has(b, v, val) {
			return true
		}
	}
	return false
}

func refIsEmpty(d *Domain, c Cube) bool {
	for v := 0; v < d.NumVars(); v++ {
		if refPartEmpty(d, c, v) {
			return true
		}
	}
	return false
}

func refUniverse(d *Domain) Cube {
	c := d.NewCube()
	for v := 0; v < d.NumVars(); v++ {
		refSetAll(d, c, v)
	}
	return c
}

func refSetAll(d *Domain, c Cube, v int) {
	for val := 0; val < d.Size(v); val++ {
		d.Set(c, v, val)
	}
}

func refClearAll(d *Domain, c Cube, v int) {
	for val := 0; val < d.Size(v); val++ {
		d.ClearVal(c, v, val)
	}
}

func refIntersect(d *Domain, a, b Cube) (Cube, bool) {
	dst := d.NewCube()
	for v := 0; v < d.NumVars(); v++ {
		for val := 0; val < d.Size(v); val++ {
			if d.Has(a, v, val) && d.Has(b, v, val) {
				d.Set(dst, v, val)
			}
		}
	}
	return dst, !refIsEmpty(d, dst)
}

func refDistance(d *Domain, a, b Cube) int {
	n := 0
	for v := 0; v < d.NumVars(); v++ {
		if !refPartMeets(d, a, b, v) {
			n++
		}
	}
	return n
}

// refCofactor returns c's cofactor by p: every value of c, plus every value
// p does not allow.
func refCofactor(d *Domain, c, p Cube) (Cube, bool) {
	if refDistance(d, c, p) != 0 {
		return nil, false
	}
	dst := d.NewCube()
	for v := 0; v < d.NumVars(); v++ {
		for val := 0; val < d.Size(v); val++ {
			if d.Has(c, v, val) || !d.Has(p, v, val) {
				d.Set(dst, v, val)
			}
		}
	}
	return dst, true
}

// refConsensus returns the consensus of a and b at distance exactly 1: the
// conflicting field is a ∪ b, every other a ∩ b.
func refConsensus(d *Domain, a, b Cube) (Cube, bool) {
	if refDistance(d, a, b) != 1 {
		return nil, false
	}
	dst := d.NewCube()
	for v := 0; v < d.NumVars(); v++ {
		conflict := !refPartMeets(d, a, b, v)
		for val := 0; val < d.Size(v); val++ {
			ha, hb := d.Has(a, v, val), d.Has(b, v, val)
			if ha && hb || conflict && (ha || hb) {
				d.Set(dst, v, val)
			}
		}
	}
	return dst, !refIsEmpty(d, dst)
}

func refFullParts(d *Domain, c Cube) int {
	n := 0
	for v := 0; v < d.NumVars(); v++ {
		if refPartFull(d, c, v) {
			n++
		}
	}
	return n
}

func refMinterms(d *Domain, c Cube) uint64 {
	if refIsEmpty(d, c) {
		return 0
	}
	n := uint64(1)
	for v := 0; v < d.NumVars(); v++ {
		hi, lo := bits.Mul64(n, uint64(refPartCount(d, c, v)))
		if hi != 0 {
			return ^uint64(0)
		}
		n = lo
	}
	return n
}
