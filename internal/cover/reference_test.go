package cover

import "picola/internal/cube"

// tautologyRef is the generic unate recursion, the oracle both tautology
// kernels (kernel.go) mirror decision for decision. It materializes a
// fresh cover per cofactor and tests fields through the domain's cube
// operations, so over a Generic view it runs the span-loop reference
// path end to end. It counts cover.tautology_nodes like the kernels.
func tautologyRef(f *Cover) bool {
	mTautologyNodes.Inc()
	d := f.D
	// Quick accept: a universal cube.
	for _, c := range f.Cubes {
		if d.FullParts(c) == d.NumVars() {
			return true
		}
	}
	if len(f.Cubes) == 0 {
		return false
	}
	// Quick reject: some value appears in no cube.
	or := d.NewCube()
	for _, c := range f.Cubes {
		d.Supercube(or, or, c)
	}
	for v := 0; v < d.NumVars(); v++ {
		if !d.PartFull(or, v) {
			return false
		}
	}
	v := f.activeVar()
	if v < 0 {
		// No active variable and no universal cube can only happen with an
		// empty cover, handled above; every remaining cube is universal.
		return true
	}
	for val := 0; val < d.Size(v); val++ {
		vc := d.ValueCube(v, val)
		if !tautologyRef(f.Cofactor(vc)) {
			return false
		}
	}
	return true
}

// coversCubeRef is CoversCube by the oracle: the tautology of the cover
// cofactored by c.
func coversCubeRef(f *Cover, c cube.Cube) bool {
	return tautologyRef(f.Cofactor(c))
}
