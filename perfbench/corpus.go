package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"picola/internal/benchgen"
	"picola/internal/consfile"
	"picola/internal/eval"
	"picola/internal/evalstore"
	"picola/internal/face"
)

// Corpus shape: corpusCount instances of 3 to corpusMaxSymbols symbols.
const (
	corpusCount      = 300
	corpusMaxSymbols = 22
	// corpusSample: every corpusSample-th instance is re-encoded in
	// process to check the command's cube counts on --trace 0 runs.
	corpusSample = 3
	// batchCacheBytes is cmd/batch's default -cache-bytes.
	batchCacheBytes = 256 << 20
)

// corpus runs `batch -j 2 -store DIR -json` over a seeded corpus. Cold,
// every pass starts from an empty store; warm, every pass reads the
// store that set-up filled with one cold pass.
type corpus struct {
	warm bool

	names []string // instance names, sorted as cmd/batch sorts them
	store string   // warm: the store set-up filled
	snap  []byte   // the snapshot every pass must reproduce byte for byte
	ref   map[string]int
	got   map[string]int // last traced run's cubes per instance
}

func (c *corpus) dir(b *bench) string { return filepath.Join(b.work, "corpus") }

func (c *corpus) setupReps() int {
	if c.warm {
		return 2
	}
	return 3
}

// setup writes the corpus from the seed and computes the in-process
// reference for the sampled instances; warm, it also fills a fresh store
// with one cold pass of the command.
func (c *corpus) setup(b *bench, rep int) error {
	dir := c.dir(b)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c.names = c.names[:0]
	var manifest bytes.Buffer
	for i := 0; i < corpusCount; i++ {
		p := corpusProblem(b.seed, i)
		var buf bytes.Buffer
		if err := consfile.Write(&buf, p); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, p.Name+".cons"), buf.Bytes(), 0o644); err != nil {
			return err
		}
		c.names = append(c.names, p.Name)
		fmt.Fprintf(&manifest, "%s.cons\n", p.Name)
	}
	if err := os.WriteFile(filepath.Join(dir, benchgen.ManifestName), manifest.Bytes(), 0o644); err != nil {
		return err
	}
	ref, err := c.sampleRef(b)
	if err != nil {
		return err
	}
	c.ref = ref
	if !c.warm {
		return nil
	}
	c.store = filepath.Join(b.work, fmt.Sprintf("store-%d", rep))
	_, err = c.runBatch(b, c.store)
	return err
}

// corpusProblem generates corpus instance i. Its shape is fixed by i:
// n runs through 3 to corpusMaxSymbols symbols, and for each n the
// constraint count steps through 1 to n. Only the constraints' members
// (2 to n-1 of them, drawn as benchgen.RandomDenseProblem draws them,
// duplicates merged into weights and one in four weighted 1 to 3) come
// from the seed. benchgen.WriteCorpus draws the shape from the seed too,
// which moves a 300-instance corpus's work by tens of percent from seed
// to seed; fixing the shape keeps the corpus's size the same for every
// seed.
func corpusProblem(seed int64, i int) *face.Problem {
	sizes := corpusMaxSymbols - 2
	perSize := corpusCount / sizes
	n := 3 + i%sizes
	nc := 1 + (i/sizes)%perSize*n/perSize
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	p := &face.Problem{Name: fmt.Sprintf("inst-%05d", i)}
	for s := 0; s < n; s++ {
		p.Names = append(p.Names, fmt.Sprintf("s%d", s))
	}
	for len(p.Constraints) < nc {
		c := face.NewConstraint(n)
		for _, m := range rng.Perm(n)[:2+rng.Intn(n-2)] {
			c.Add(m)
		}
		before := len(p.Constraints)
		p.AddConstraint(c)
		if len(p.Constraints) > before && rng.Intn(4) == 0 {
			p.Weights[len(p.Weights)-1] = 1 + rng.Intn(3)
		}
	}
	return p
}

// pass runs the command once: cold into a new empty store, warm against
// the store set-up filled.
func (c *corpus) pass(b *bench) (passStat, error) {
	store := c.store
	if !c.warm {
		store = filepath.Join(b.work, "store-cold")
		if err := os.RemoveAll(store); err != nil {
			return passStat{}, err
		}
	}
	return c.runBatch(b, store)
}

// runBatch runs one batch pass against store and checks its snapshot:
// every instance present, byte-identical to the first pass of this
// invocation (a warm pass to the cold pass that filled its store), and
// the sampled instances' cubes equal to an in-process encode.
func (c *corpus) runBatch(b *bench, store string) (passStat, error) {
	out := filepath.Join(b.work, "corpus.json")
	p, err := b.runCmd("batch", "-j", fmt.Sprint(jobs), "-store", store, "-json", out, c.dir(b))
	if err != nil {
		return passStat{}, err
	}
	var ps passStat
	ps.add(p)
	snap, raw, err := readSnapshot(out)
	if err != nil {
		return passStat{}, err
	}
	got := make(map[string]int, len(snap.Rows))
	for _, r := range snap.Rows {
		k := r.Encoders["picola"].Cubes
		got[r.FSM] = k
		ps.cubes += k
	}
	for _, name := range c.names {
		b.attempted++
		k, ok := got[name]
		switch {
		case !ok:
			b.fail("corpus %s: missing row", name)
		case c.ref[name] != k && c.sampled(name):
			b.fail("corpus %s: cubes %d, in-process %d", name, k, c.ref[name])
		}
	}
	if c.snap == nil {
		c.snap = raw
	} else if !bytes.Equal(c.snap, raw) {
		b.fail("corpus: snapshot differs from the first pass's")
	}
	return ps, nil
}

// sampled reports whether the in-process reference holds name.
func (c *corpus) sampled(name string) bool {
	_, ok := c.ref[name]
	return ok
}

// sampleRef encodes every corpusSample-th instance in process, as
// cmd/batch's computeInstance does, checks each encoding, and returns
// the cube counts by instance name.
func (c *corpus) sampleRef(b *bench) (map[string]int, error) {
	ref := map[string]int{}
	memo := eval.NewCacheBytes(batchCacheBytes)
	l := newLayers(nil)
	l.workers = jobs
	for i := 0; i < len(c.names); i += corpusSample {
		name := c.names[i]
		prob, err := c.load(b, name)
		if err != nil {
			return nil, err
		}
		e, k, err := l.encodeEval(prob, memo)
		if err != nil {
			return nil, err
		}
		l.verifyLater(name, prob, e)
		ref[name] = k
	}
	l.verify(b)
	return ref, nil
}

// load parses one corpus instance, named as cmd/batch names it.
func (c *corpus) load(b *bench, name string) (*face.Problem, error) {
	f, err := os.Open(filepath.Join(c.dir(b), name+".cons"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prob, err := consfile.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	prob.Name = name
	return prob, nil
}

// traced mirrors cmd/batch's run and computeInstance sequentially: open
// and load the store, then per instance parse, encode and evaluate,
// then export the cache, append it to the store and compact. Cold, it
// starts from a new empty store.
func (c *corpus) traced(b *bench, tr *tracer) (*layers, error) {
	dir := c.store
	if !c.warm {
		dir = filepath.Join(b.work, "store-traced")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	l := newLayers(tr)
	c.got = make(map[string]int, len(c.names))
	memo := eval.NewCacheBytes(batchCacheBytes)
	var st *evalstore.Store
	var ls evalstore.LoadStats
	err := l.timed("evalstore.load_s", func() (err error) {
		if st, err = evalstore.Open(dir); err == nil {
			ls, err = st.Load(memo)
		}
		return
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	l.v["evalstore.loaded_entries"] = float64(ls.Entries)
	for _, name := range c.names {
		t0 := time.Now()
		f, err := os.Open(filepath.Join(c.dir(b), name+".cons"))
		if err != nil {
			return nil, err
		}
		var prob *face.Problem
		err = l.timed("consfile.parse_s", func() (err error) { prob, err = consfile.Parse(f); return })
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		prob.Name = name
		e, k, err := l.encodeEval(prob, memo)
		if err != nil {
			return nil, err
		}
		l.inst = append(l.inst, time.Since(t0))
		c.got[name] = k
		l.verifyLater(name, prob, e)
	}
	var entries []eval.CacheEntry
	_ = l.timed("eval.cache.export_s", func() error { entries = memo.Export(); return nil })
	before := statDir(dir)
	var appended int
	err = l.timed("evalstore.append_s", func() (err error) { appended, err = st.Append(entries); return })
	if err != nil {
		return nil, err
	}
	mid := statDir(dir)
	var cs evalstore.CompactStats
	if err := l.timed("evalstore.compact_s", func() (err error) { cs, err = st.Compact(); return }); err != nil {
		return nil, err
	}
	after := statDir(dir)
	l.v["evalstore.appended_entries"] = float64(appended)
	l.v["evalstore.compacted_entries"] = float64(cs.Entries)
	l.v["evalstore.bytes_written"] = float64(written(before, mid) + written(mid, after))
	l.finish()
	return l, nil
}

// crossCheck holds one untimed pass of the command to the traced run's
// cube counts, instance by instance.
func (c *corpus) crossCheck(b *bench) error {
	c.ref = c.got
	_, err := c.pass(b)
	return err
}

func (c *corpus) minPasses() int { return 3 }
