package picola

import (
	"context"
	"testing"

	"picola/internal/face"
)

// TestEmptyConstraintEveryAlgorithm: a constraint without members spans
// no face and has no intruders. Every encoder must accept a problem that
// carries one next to an ordinary constraint and return a full encoding.
func TestEmptyConstraintEveryAlgorithm(t *testing.T) {
	for _, algo := range Algorithms() {
		p := &face.Problem{
			Names:       []string{"a", "b", "c", "d", "e"},
			Constraints: []face.Constraint{face.FromMembers(5, 0, 1), face.NewConstraint(5)},
		}
		res, err := Encode(context.Background(), p, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Encoding == nil || res.Encoding.N() != 5 {
			t.Fatalf("%s: no encoding of the 5 symbols", algo)
		}
	}
}
