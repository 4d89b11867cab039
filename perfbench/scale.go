package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"picola/internal/consfile"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/verify"
)

// scaleSizes is the symbol-count sweep. Above 40 symbols exact polish is
// off and above 64 polish is off, so the large sizes measure core's
// column generation almost alone.
var scaleSizes = []int{16, 32, 64, 128, 256, 512, 1024}

// scaleSweeps is the number of independently generated sweeps in one
// pass. One n = 1024 instance's wall swings by a quarter between runs
// (4 portfolio variants packed onto 2 workers) and its cube count by
// several percent between seeds; three sweeps average both down.
const scaleSweeps = 3

// scaleRefMax is the largest size re-encoded in process to check the
// command's cube counts on --trace 0 runs; the traced run checks all.
const scaleRefMax = 256

// scale runs `picola -j 2 FILE` once per instance of the size sweeps.
// It goes through cmd/picola because cmd/batch leaves core's Workers
// unset, which runs a large instance's portfolio on one core.
type scale struct {
	probs []*face.Problem
	files []string
	out   [][]byte // first pass's output per instance
	ref   []int    // in-process cube counts; -1 where not computed
}

// scaleProblem generates sweep k's instance with n symbols: n/8
// constraints (at least 2), each of 2 to 9 distinct members drawn
// uniformly.
func scaleProblem(seed int64, k, n int) *face.Problem {
	rng := rand.New(rand.NewSource((seed*scaleSweeps+int64(k))*1_000_003 + int64(n)))
	p := &face.Problem{Name: fmt.Sprintf("scale-%d-n%d", k, n)}
	for s := 0; s < n; s++ {
		p.Names = append(p.Names, fmt.Sprintf("s%d", s))
	}
	for nc := max(2, n/8); len(p.Constraints) < nc; {
		c := face.NewConstraint(n)
		for _, m := range rng.Perm(n)[:2+rng.Intn(8)] {
			c.Add(m)
		}
		p.AddConstraint(c)
	}
	return p
}

func (s *scale) setupReps() int { return 3 }

// setup generates the sweeps from the seed, writes one consfile per
// instance, and computes the in-process reference.
func (s *scale) setup(b *bench, rep int) error {
	dir := filepath.Join(b.work, "scale")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.probs, s.files = nil, nil
	for k := 0; k < scaleSweeps; k++ {
		for _, n := range scaleSizes {
			p := scaleProblem(b.seed, k, n)
			path := filepath.Join(dir, p.Name+".cons")
			var buf bytes.Buffer
			if err := consfile.Write(&buf, p); err != nil {
				return err
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				return err
			}
			s.probs = append(s.probs, p)
			s.files = append(s.files, path)
		}
	}
	return s.reference()
}

// pass runs the command once per instance. Every pass's output must be
// byte-identical to the first's; the first is also checked: each
// encoding with internal/verify, its printed per-constraint cubes
// against their total, and the total against the in-process reference.
func (s *scale) pass(b *bench) (passStat, error) {
	var ps passStat
	first := s.out == nil
	for i, path := range s.files {
		p, err := b.runCmd("picola", "-j", fmt.Sprint(jobs), path)
		if err != nil {
			return passStat{}, err
		}
		ps.add(p)
		b.attempted++
		k, err := s.check(i, p.stdout, first)
		if err != nil {
			b.fail("scale %s: %v", s.probs[i].Name, err)
		}
		ps.cubes += k
	}
	return ps, nil
}

func (s *scale) check(i int, out []byte, first bool) (int, error) {
	p := s.probs[i]
	if !first {
		if !bytes.Equal(out, s.out[i]) {
			return 0, fmt.Errorf("output differs from the first pass's")
		}
		return parseCubes(out)
	}
	s.out = append(s.out, out)
	e, err := parseCodes(p, out)
	if err != nil {
		return 0, err
	}
	if rep := verify.CheckEncoding(p, e, verify.Options{RequireMinLength: true}); !rep.Ok() {
		return 0, rep.Err()
	}
	k, err := parseCubes(out)
	if err != nil {
		return 0, err
	}
	if s.ref[i] >= 0 && s.ref[i] != k {
		return k, fmt.Errorf("cubes %d, in-process %d", k, s.ref[i])
	}
	return k, nil
}

// reference encodes the instances up to scaleRefMax symbols in process,
// as cmd/picola does (a fresh cache per instance).
func (s *scale) reference() error {
	s.ref = make([]int, len(s.probs))
	for i, p := range s.probs {
		s.ref[i] = -1
		if p.N() > scaleRefMax {
			continue
		}
		l := newLayers(nil)
		l.workers = jobs
		_, k, err := l.encodeEval(p, eval.NewCache())
		if err != nil {
			return err
		}
		s.ref[i] = k
	}
	return nil
}

// parseCodes reads the encoding from cmd/picola's output: one line per
// symbol, its name then its code, column 0 first.
func parseCodes(p *face.Problem, out []byte) (*face.Encoding, error) {
	ls := lines(out)
	if len(ls) < p.N() {
		return nil, fmt.Errorf("output has %d lines, want %d codes", len(ls), p.N())
	}
	var e *face.Encoding
	for s := 0; s < p.N(); s++ {
		f := strings.Fields(ls[s])
		if len(f) != 2 || f[0] != p.Names[s] {
			return nil, fmt.Errorf("line %d: %q, want symbol %s and its code", s+1, ls[s], p.Names[s])
		}
		if e == nil {
			e = face.NewEncoding(p.N(), len(f[1]))
		}
		if len(f[1]) != e.NV {
			return nil, fmt.Errorf("line %d: code length %d, want %d", s+1, len(f[1]), e.NV)
		}
		for c, ch := range f[1] {
			switch ch {
			case '0':
			case '1':
				e.SetBit(s, c, 1)
			default:
				return nil, fmt.Errorf("line %d: bad code %q", s+1, f[1])
			}
		}
	}
	return e, nil
}

// parseCubes reads the cube total from cmd/picola's summary line and
// checks it against the per-constraint lines that follow it.
func parseCubes(out []byte) (int, error) {
	total, sum := -1, 0
	for _, l := range lines(out) {
		if strings.HasPrefix(l, "constraints:") {
			i := strings.Index(l, "cubes: ")
			if i < 0 {
				break
			}
			f := strings.Fields(l[i+len("cubes: "):])
			k, err := strconv.Atoi(f[0])
			if err != nil {
				return 0, fmt.Errorf("summary %q: %w", l, err)
			}
			total = k
		} else if i := strings.Index(l, "cubes="); i >= 0 && total >= 0 {
			f := strings.Fields(l[i+len("cubes="):])
			k, err := strconv.Atoi(f[0])
			if err != nil {
				return 0, fmt.Errorf("constraint line %q: %w", l, err)
			}
			sum += k
		}
	}
	if total < 0 {
		return 0, fmt.Errorf("no cube summary in the output")
	}
	if sum != total {
		return 0, fmt.Errorf("per-constraint cubes sum to %d, summary says %d", sum, total)
	}
	return total, nil
}

// traced mirrors cmd/picola per instance of the first sweep,
// sequentially: parse the file, then encode and evaluate with a fresh
// cache. One sweep keeps a traced run, which is about twice as slow as
// the command at -j 2, well inside the run's time limit.
func (s *scale) traced(b *bench, tr *tracer) (*layers, error) {
	l := newLayers(tr)
	l.bySize = true
	for i, path := range s.files[:len(scaleSizes)] {
		t0 := time.Now()
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		var p *face.Problem
		err = l.timed("consfile.parse_s", func() (err error) { p, err = consfile.Parse(f); return })
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		e, k, err := l.encodeEval(p, eval.NewCache())
		if err != nil {
			return nil, err
		}
		l.inst = append(l.inst, time.Since(t0))
		s.ref[i] = k
		l.verifyLater(s.probs[i].Name, p, e)
	}
	l.finish()
	return l, nil
}

// crossCheck holds one untimed pass of the command to the traced run's
// cube counts on the first sweep, and to set-up's reference elsewhere.
func (s *scale) crossCheck(b *bench) error {
	s.out = nil
	_, err := s.pass(b)
	return err
}

// minPasses: one pass already runs every size scaleSweeps times.
func (s *scale) minPasses() int { return 1 }
