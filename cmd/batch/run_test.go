package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"picola/internal/eval"
	"picola/internal/evalstore"
)

// genCorpus writes a small fixed-seed corpus and returns its directory.
func genCorpus(t *testing.T, count int) string {
	t.Helper()
	dir := t.TempDir()
	var errw bytes.Buffer
	cfg := config{gen: true, seed: 11, count: count, maxSymbols: 8, args: []string{dir}}
	if code := run(context.Background(), cfg, &errw, &errw); code != exitOK {
		t.Fatalf("gen exited %d: %s", code, errw.String())
	}
	return dir
}

// runBatch runs one invocation against dir and returns (exit code,
// snapshot bytes, stdout).
func runBatch(t *testing.T, cfg config, dir string) (int, []byte, string) {
	t.Helper()
	cfg.args = []string{dir}
	if cfg.workers == 0 {
		cfg.workers = 4
	}
	if cfg.shardN == 0 {
		cfg.shardN = 1
	}
	var w, errw bytes.Buffer
	code := run(context.Background(), cfg, &w, &errw)
	if code != exitOK && code != exitMore {
		t.Fatalf("batch exited %d: %s", code, errw.String())
	}
	var snap []byte
	if cfg.jsonOut != "" {
		b, err := os.ReadFile(cfg.jsonOut)
		if err != nil {
			t.Fatal(err)
		}
		snap = b
	}
	return code, snap, w.String()
}

// TestBatchSnapshotDeterministic: the aggregate snapshot is byte-
// identical across runs and worker counts.
func TestBatchSnapshotDeterministic(t *testing.T) {
	dir := genCorpus(t, 25)
	out := t.TempDir()
	_, s1, _ := runBatch(t, config{jsonOut: filepath.Join(out, "a.json"), workers: 4}, dir)
	_, s2, _ := runBatch(t, config{jsonOut: filepath.Join(out, "b.json"), workers: 1}, dir)
	if !bytes.Equal(s1, s2) {
		t.Fatal("snapshot differs between -j 4 and -j 1")
	}
	if !strings.Contains(string(s1), `"picola-bench/v1"`) {
		t.Fatalf("snapshot missing schema: %s", s1)
	}
}

// TestBatchKillResume: a run stopped mid-corpus at -limit resumes from
// its checkpoint, recomputes nothing it already has, and produces a
// snapshot byte-identical to an uninterrupted run's.
func TestBatchKillResume(t *testing.T) {
	dir := genCorpus(t, 24)
	out := t.TempDir()
	ckpt := filepath.Join(out, "run.ckpt")

	code, _, _ := runBatch(t, config{checkpoint: ckpt, limit: 9}, dir)
	if code != exitMore {
		t.Fatalf("limited run exited %d, want %d", code, exitMore)
	}
	// Tear the journal's tail: the frame a kill interrupts mid-write.
	jb, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, jb[:len(jb)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	code, resumedSnap, stdout := runBatch(t,
		config{checkpoint: ckpt, jsonOut: filepath.Join(out, "resumed.json")}, dir)
	if code != exitOK {
		t.Fatalf("resume exited %d", code)
	}
	// 8 clean frames survive the tear (the 9th was torn), so the resume
	// computes the remaining 16 and restores 8.
	if !strings.Contains(stdout, "computed=16 resumed=8") {
		t.Fatalf("resume summary %q, want computed=16 resumed=8", stdout)
	}

	_, fullSnap, _ := runBatch(t, config{jsonOut: filepath.Join(out, "full.json")}, dir)
	if !bytes.Equal(resumedSnap, fullSnap) {
		t.Fatal("resumed snapshot differs from an uninterrupted run's")
	}
}

// TestBatchShardMerge: two process shards partition the corpus, and
// merging their snapshots reproduces the unsharded snapshot exactly.
func TestBatchShardMerge(t *testing.T) {
	dir := genCorpus(t, 20)
	out := t.TempDir()
	s0 := filepath.Join(out, "s0.json")
	s1 := filepath.Join(out, "s1.json")
	_, _, out0 := runBatch(t, config{shardIdx: 0, shardN: 2, jsonOut: s0}, dir)
	_, _, out1 := runBatch(t, config{shardIdx: 1, shardN: 2, jsonOut: s1}, dir)
	if out0 == out1 {
		t.Fatalf("shards reported identical summaries: %q", out0)
	}

	mergedPath := filepath.Join(out, "merged.json")
	var w, errw bytes.Buffer
	cfg := config{merge: true, jsonOut: mergedPath, args: []string{s0, s1}}
	if code := run(context.Background(), cfg, &w, &errw); code != exitOK {
		t.Fatalf("merge exited %d: %s", code, errw.String())
	}
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	_, full, _ := runBatch(t, config{jsonOut: filepath.Join(out, "full.json")}, dir)
	if !bytes.Equal(merged, full) {
		t.Fatal("merged shard snapshots differ from the unsharded snapshot")
	}

	// Overlapping inputs (the same shard twice) must be rejected.
	cfg = config{merge: true, jsonOut: filepath.Join(out, "dup.json"), args: []string{s0, s0}}
	if code := run(context.Background(), cfg, &w, &errw); code != exitErr {
		t.Fatalf("overlapping merge exited %d, want %d", code, exitErr)
	}
}

// TestBatchWarmStore: a store populated by a cold run warms the next
// ones — same snapshot bytes — and a warm run that computes nothing new
// writes nothing: every store file keeps its size, content and mtime.
func TestBatchWarmStore(t *testing.T) {
	dir := genCorpus(t, 15)
	out := t.TempDir()
	storeDir := filepath.Join(out, "store")
	_, cold, _ := runBatch(t, config{storeDir: storeDir, jsonOut: filepath.Join(out, "cold.json")}, dir)
	if _, err := os.Stat(filepath.Join(storeDir, "shard-00.ir")); err != nil {
		t.Fatalf("cold run left no compacted store: %v", err)
	}
	before := freezeDir(t, storeDir)
	for i := 0; i < 2; i++ {
		snap, stderr := runStored(t, storeDir, filepath.Join(out, "warm.json"), dir)
		if !bytes.Equal(cold, snap) {
			t.Fatalf("warm run %d: snapshot differs from cold", i+1)
		}
		if !strings.Contains(stderr, "appended 0, rewrote 0 shard file(s)") {
			t.Fatalf("warm run %d store line: %q", i+1, stderr)
		}
		if !reflect.DeepEqual(before, dirState(t, storeDir)) {
			t.Fatalf("warm run %d wrote to the store", i+1)
		}
	}
}

// TestBatchPartiallyWarmStore: a corpus that adds instances to a filled
// store appends exactly the signatures the store lacked — the store
// ends up holding what a cold run of the whole corpus writes — and the
// snapshot equals that cold run's.
func TestBatchPartiallyWarmStore(t *testing.T) {
	dir := genCorpus(t, 15)
	out := t.TempDir()
	sub := filepath.Join(dir, "first.txt")
	var manifest strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&manifest, "inst-%05d.cons\n", i)
	}
	if err := os.WriteFile(sub, []byte(manifest.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(out, "store")
	runStored(t, storeDir, filepath.Join(out, "part.json"), sub)
	part := storeEntries(t, storeDir)

	warm, stderr := runStored(t, storeDir, filepath.Join(out, "warm.json"), dir)
	fullDir := filepath.Join(out, "full-store")
	cold, _ := runStored(t, fullDir, filepath.Join(out, "cold.json"), dir)
	if !bytes.Equal(warm, cold) {
		t.Fatal("partially warm snapshot differs from a cold run's")
	}
	full := storeEntries(t, fullDir)
	if !reflect.DeepEqual(storeEntries(t, storeDir), full) {
		t.Fatal("partially warm store differs from a cold run's store")
	}
	want := fmt.Sprintf("appended %d,", len(full)-len(part))
	if len(full) <= len(part) || !strings.Contains(stderr, want) {
		t.Fatalf("store line %q, want %q (store grew %d -> %d)", stderr, want, len(part), len(full))
	}
}

// runStored runs the corpus at arg against storeDir and returns the
// snapshot and stderr.
func runStored(t *testing.T, storeDir, jsonOut, arg string) ([]byte, string) {
	t.Helper()
	var w, errw bytes.Buffer
	cfg := config{storeDir: storeDir, jsonOut: jsonOut, workers: 4, shardN: 1, args: []string{arg}}
	if code := run(context.Background(), cfg, &w, &errw); code != exitOK {
		t.Fatalf("batch exited %d: %s", code, errw.String())
	}
	snap, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	return snap, errw.String()
}

// storeEntries returns the store's entry inventory.
func storeEntries(t *testing.T, dir string) []eval.CacheEntry {
	t.Helper()
	s, err := evalstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ents, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	return ents
}

// freezeDir backdates every file under dir, so any later write shows in
// its mtime, and returns the directory's state.
func freezeDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	old := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	for name := range dirState(t, dir) {
		if err := os.Chtimes(filepath.Join(dir, name), old, old); err != nil {
			t.Fatal(err)
		}
	}
	return dirState(t, dir)
}

// dirState maps every file under dir to its size, mtime and content.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(des))
	for _, de := range des {
		p := filepath.Join(dir, de.Name())
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = fmt.Sprintf("%d %d %s", fi.Size(), fi.ModTime().UnixNano(), b)
	}
	return out
}

// TestBatchAudit: -audit accepts the whole corpus (the oracles agree
// with the encoder on every instance).
func TestBatchAudit(t *testing.T) {
	dir := genCorpus(t, 8)
	if code, _, _ := runBatch(t, config{audit: true}, dir); code != exitOK {
		t.Fatalf("audited run exited %d", code)
	}
}

// TestBatchManifestSubset: pointing at a manifest that lists a subset
// runs exactly that subset.
func TestBatchManifestSubset(t *testing.T) {
	dir := genCorpus(t, 10)
	sub := filepath.Join(dir, "subset.txt")
	if err := os.WriteFile(sub, []byte("# subset\ninst-00003.cons\ninst-00007.cons\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var w, errw bytes.Buffer
	cfg := config{workers: 2, shardN: 1, args: []string{sub}}
	if code := run(context.Background(), cfg, &w, &errw); code != exitOK {
		t.Fatalf("subset run exited %d: %s", code, errw.String())
	}
	if !strings.Contains(w.String(), "instances=2 computed=2") {
		t.Fatalf("subset summary %q", w.String())
	}
}
