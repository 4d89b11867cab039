package symbolic

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/obs"
)

// table1Covers pins, per Table I machine, the minimized symbolic cover:
// its cube count, the cover.tautology_nodes the minimization visits, and
// the SHA-256 of its sorted String form. The values were recorded with the
// generic unate recursion before the wide tautology kernel replaced it, so
// they hold every later kernel to the oracle's covers byte for byte.
var table1Covers = []struct {
	fsm    string
	cubes  int
	nodes  int64
	sha256 string
}{
	{"bbara", 35, 344, "348ffb8a9c822801732ca3c4d9ea852c1dc507e268050a7e8c7eee0bc27d3256"},
	{"bbsse", 34, 497, "76ea269f72983d593e6639c8c3b6fe76f6a1079ad4743410fd65ee2e0ca177d0"},
	{"cse", 55, 556, "4c72c039144224e8475272d75c87f31905f2b3422f8753d63dbd4456466a7b03"},
	{"dk14", 34, 281, "b4531aedbf9880956df6542ecc7a790c6c5854a30a344c61a01d52eaf7f419be"},
	{"ex3", 24, 146, "fcf48c817d789d86714de00a129d190906614c72b530a00d8e9f665813f28590"},
	{"ex5", 22, 98, "0a899abbde43e083255fcad54abb5434ff925e54e3d24e0f990b5f0c156ce63a"},
	{"ex7", 26, 179, "cd35d68020f51bccaaa95da7f163b55b12f69021d13b7f0d57cc0f29e32c9af1"},
	{"kirkman", 130, 1134, "94afc3c7bc0bb2e6a4beff9b5900d4e7ab4c78b3de69b6dde08b8ec7f46539d4"},
	{"lion9", 18, 87, "4906e2ec922ecba260eb65f787003584d27547d108825ea02add014f648b89e0"},
	{"mark1", 21, 264, "352bafb088b86945260c5924614c79f3369b8189b67ba9fa1e367b02d25c2985"},
	{"opus", 19, 126, "b6fb582bc007c26644d268c667ec15ca078e5290a98c167f3e545fef74ba10f5"},
	{"train11", 22, 125, "03251a5fcaa763ee91fecd53e0180b0898e99e8950638ad23dd6e90adc4da665"},
	{"s8", 16, 79, "a0de742ed0ec20aadc42162480e55078d601e839f5d0910f1ce6b9bf4ed922af"},
	{"s27", 24, 127, "e974df8aaa87106d6a7ffaab18132c0f6e78b7f0c45205ccdc08ae5baeb6af03"},
	{"dk16", 58, 1002, "d577e2e75596fccf40d2592be36914645cfefd6fe2fb94b652a96da961d27db0"},
	{"donfile", 50, 333, "ef44a47fe22ba4b8e43c4329fbbc0612d6ef99112a2f747d515bc4839ef51db7"},
	{"ex1", 90, 1772, "e3f16f0b123e4f60d14761cb0f86a61d44615f68736b0a5ca06a6190497bab61"},
	{"ex2", 39, 372, "a143d9c2d0b46974989a2252a8f833e146d42553bbd62bc71544f02df910e917"},
	{"keyb", 95, 741, "26c958140bb9a2303915d9690a51260aa523e637f3be396441c672ae6f284e9e"},
	{"s386", 36, 493, "741d06f5d64acc013c1746df3a3c4bf5685275bd46f86423614326ba87a868b6"},
	{"s1", 64, 589, "d3e901889e4319bc91039361043b886c43143f534de108c7d33584350ca40e26"},
	{"s1a", 68, 661, "4f7bd3d5816020f26ec6cda1894cab2da0d3b9419c13a90f38065e8ce110e55d"},
	{"sand", 110, 1457, "3bc0e42022fc9cacaaf43cf7448fec328610f5e315274e6ae3367f7ad1f55a09"},
	{"tma", 38, 325, "e139bde60d5ab699e80c854cce2b13288d8162bcbc3b8354ff194a8eb57c7470"},
	{"pma", 55, 527, "d921b4365f4e0bada7d6fabc214148bd8d8bd990e5b073d9d254ec24a0bee195"},
	{"styr", 96, 1522, "7c51f12e01420126140b1421e0960b05052c994ddc166a94baf56f6561b6d492"},
	{"tbk", 135, 1213, "fcaaf656e1f3f14cb982dea7e69c0b9cf02089944624ef5d43ba015a57618653"},
	{"s420", 79, 433, "e14aff045f3fd0dfef63f9f8cf6dc23595f5beb590e197c8da07f7f29f465e9c"},
	{"s510", 67, 704, "bb4607724a8b7e0b8cf7acc945c9235b11e8f9e3c5436cf86b48450628325753"},
	{"planet", 96, 1859, "256599cfa2afd485901c39520d009da53b624046d20e9d0f015f9eff46f1a9f7"},
	{"s832", 135, 3274, "33b9b125e16a7f9a9b54f593ea4a05d200644ee20e70d51454f25422185b2035"},
	{"s820", 124, 2843, "b02a19d59af57db0f4adbd4a9a5c0423d69aa7c2f31cac840d750c45e761f185"},
	{"scf", 147, 24242, "91e9e67eea0362277e83893938e9077fd31367e2f66308061d137b555e855882"},
}

// withDomain returns a cover holding the same cubes over domain d.
func withDomain(c *cover.Cover, d *cube.Domain) *cover.Cover {
	return &cover.Cover{D: d, Cubes: c.Cubes}
}

// TestTable1CoversGolden is the extraction golden test: all 33 Table I
// minimized covers are byte-identical between the kernel domain and its
// Generic view (span-loop cube operations), equal to the pinned digests,
// and visit the pinned tautology node counts.
func TestTable1CoversGolden(t *testing.T) {
	nodes := obs.Default.Counter("cover.tautology_nodes")
	specs := benchgen.Table1Specs()
	if len(specs) != len(table1Covers) {
		t.Fatalf("%d Table I machines, %d pinned covers", len(specs), len(table1Covers))
	}
	for i, spec := range specs {
		want := table1Covers[i]
		if spec.Name != want.fsm {
			t.Fatalf("machine %d is %s, pinned %s", i, spec.Name, want.fsm)
		}
		if raceEnabled && spec.Name == "scf" {
			continue // minutes under the race detector; the plain build checks it
		}
		m := benchgen.Generate(spec)
		var got [2]string
		for side := range got {
			sc, err := Build(m)
			if err != nil {
				t.Fatal(err)
			}
			if side == 1 {
				g := sc.D.Generic()
				sc.D, sc.On, sc.DC, sc.Off = g, withDomain(sc.On, g), withDomain(sc.DC, g), withDomain(sc.Off, g)
			}
			n0 := nodes.Value()
			min, err := sc.Minimize()
			if err != nil {
				t.Fatal(err)
			}
			if n := nodes.Value() - n0; n != want.nodes {
				t.Errorf("%s side %d: %d tautology nodes, pinned %d", spec.Name, side, n, want.nodes)
			}
			if min.Len() != want.cubes {
				t.Errorf("%s side %d: %d cubes, pinned %d", spec.Name, side, min.Len(), want.cubes)
			}
			got[side] = min.String()
			if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got[side]))); sum != want.sha256 {
				t.Errorf("%s side %d: cover digest %s, pinned %s", spec.Name, side, sum, want.sha256)
			}
		}
		if got[0] != got[1] {
			t.Errorf("%s: kernel and Generic-view covers differ", spec.Name)
		}
	}
}
