package symbolic

import (
	"testing"

	"picola/internal/benchgen"
	"picola/internal/kiss"
)

// BenchmarkExtractConstraints times the one-call extraction pipeline
// (build, minimize, constraints) on scf, the largest Table I machine and
// the critical path of a parallel Table I run, and over all 33 machines.
func BenchmarkExtractConstraints(b *testing.B) {
	var all []*kiss.FSM
	var scf *kiss.FSM
	for _, spec := range benchgen.Table1Specs() {
		m := benchgen.Generate(spec)
		all = append(all, m)
		if spec.Name == "scf" {
			scf = m
		}
	}
	for _, bc := range []struct {
		name string
		fsms []*kiss.FSM
	}{{"scf", []*kiss.FSM{scf}}, {"table1", all}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range bc.fsms {
					if _, _, err := ExtractConstraints(m); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
