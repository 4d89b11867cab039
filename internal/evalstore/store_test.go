package evalstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"picola/internal/eval"
	"picola/internal/ir"
)

// testEntry builds a distinct valid nv=4 entry from an index.
func testEntry(i int) eval.CacheEntry {
	return eval.CacheEntry{
		Heuristic: i%2 == 1,
		NV:        4,
		Used:      []uint64{0xffff},
		On:        []uint64{uint64(i)&0x7fff | 1},
		Cubes:     i%5 + 1,
	}
}

func testEntries(n int) []eval.CacheEntry {
	out := make([]eval.CacheEntry, n)
	for i := range out {
		out[i] = testEntry(i)
	}
	return out
}

// loadAll reopens dir and returns its canonical entry inventory.
func loadAll(t *testing.T, dir string) []eval.CacheEntry {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entries, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestStoreRoundTrip: append → load → compact → load yields the same
// entries, the compaction leaves an empty WAL, and appends dedup
// against what is already on disk.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(64)
	n, err := s.Append(want)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("appended %d entries, want %d", n, len(want))
	}
	if n, err = s.Append(want); err != nil || n != 0 {
		t.Fatalf("re-append wrote %d entries (err %v), want 0", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got := loadAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(want))
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := eval.NewCache()
	st, err := s2.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(want) || st.Import.Inserted != len(want) || st.Import.Skipped() != 0 {
		t.Fatalf("load stats %+v, want %d clean inserts", st, len(want))
	}
	// A cross-process appender dedups against loaded state too.
	if n, err := s2.Append(want); err != nil || n != 0 {
		t.Fatalf("append after load wrote %d (err %v), want 0", n, err)
	}
	cst, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Entries != len(want) {
		t.Fatalf("compacted %d entries, want %d", cst.Entries, len(want))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL after compact: %v size %v, want empty", err, fi)
	}
	if post := loadAll(t, dir); !reflect.DeepEqual(post, got) {
		t.Fatalf("entries changed across compaction")
	}
}

// TestStoreSkipsCorruptShard: a shard file overwritten with garbage is
// skipped and counted; the rest of the store still loads.
func TestStoreSkipsCorruptShard(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(64)
	if _, err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one shard that actually holds entries.
	var victim string
	lost := -1
	for i := 0; i < storeShards; i++ {
		p := filepath.Join(dir, shardName(i))
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		f, err := ir.Unmarshal(b)
		if err != nil {
			t.Fatalf("shard %d unreadable before corruption: %v", i, err)
		}
		if len(f.CacheEntries) > 0 {
			victim, lost = p, len(f.CacheEntries)
			break
		}
	}
	if victim == "" {
		t.Fatal("no populated shard to corrupt")
	}
	if err := os.WriteFile(victim, []byte("not a picola-ir file"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c := eval.NewCache()
	st, err := s2.Load(c)
	if err != nil {
		t.Fatalf("load with corrupt shard must not fail: %v", err)
	}
	if st.SkippedShards != 1 {
		t.Fatalf("SkippedShards = %d, want 1", st.SkippedShards)
	}
	if st.Entries != len(want)-lost {
		t.Fatalf("loaded %d entries, want %d (lost shard held %d)",
			st.Entries, len(want)-lost, lost)
	}
}

// TestStoreTornWAL: truncating the WAL mid-frame loses only the torn
// tail; every frame before the tear loads, and the tear is accounted.
func TestStoreTornWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, second := testEntries(8), testEntries(16)[8:]
	if _, err := s.Append(first); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(second); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, wal[:len(wal)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load(eval.NewCache())
	if err != nil {
		t.Fatalf("load with torn WAL must not fail: %v", err)
	}
	if st.WALFrames != 1 || st.Entries != len(first) {
		t.Fatalf("torn WAL: %d frames / %d entries, want 1 / %d",
			st.WALFrames, st.Entries, len(first))
	}
	if st.WALTornBytes == 0 {
		t.Fatal("torn tail not accounted")
	}
}

// TestStoreBadWALFrame: a well-framed payload that is not a valid
// picola-ir container is counted and skipped, and later frames still
// load.
func TestStoreBadWALFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testEntries(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Splice a valid frame carrying junk in front of the real one.
	journal := ir.AppendFrame(nil, []byte("junk payload"))
	journal = append(journal, wal...)
	if err := os.WriteFile(walPath, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load(eval.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if st.WALBadFrames != 1 || st.WALFrames != 1 || st.Entries != 4 {
		t.Fatalf("bad-frame WAL: %+v, want 1 bad / 1 good / 4 entries", st)
	}
}

// TestStoreInterruptedCompaction: a WAL left behind after the shard
// renames (the crash window) only duplicates entries; loads dedup to
// the same inventory.
func TestStoreInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(32)
	if _, err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// Restore the pre-truncation WAL: the state a crash between the
	// final rename and the truncate leaves on disk.
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	st, err := s3.Load(eval.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(want) {
		t.Fatalf("post-crash load found %d entries, want %d (dedup failed)",
			st.Entries, len(want))
	}
}

// TestStoreChunkedAppend: one Append larger than a frame's entry budget
// splits into multiple WAL frames — the corpus-scale path where a
// single frame would exceed the decoder's section cap and the whole
// export would be unreadable — and the inventory round-trips intact.
func TestStoreChunkedAppend(t *testing.T) {
	old := appendChunkEntries
	appendChunkEntries = 7
	defer func() { appendChunkEntries = old }()

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(64)
	n, err := s.Append(want)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("appended %d entries, want %d", n, len(want))
	}
	if n, err := s.Append(want); err != nil || n != 0 {
		t.Fatalf("re-append wrote %d entries (err %v), want 0", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load(eval.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := (len(want) + 6) / 7
	if st.WALFrames != wantFrames || st.WALBadFrames != 0 {
		t.Fatalf("WAL frames %d (bad %d), want %d clean frames",
			st.WALFrames, st.WALBadFrames, wantFrames)
	}
	if st.Entries != len(want) {
		t.Fatalf("loaded %d entries, want %d", st.Entries, len(want))
	}
}

// TestStoreCompactKeepsUndecodableWAL: a CRC-valid WAL frame the
// decoder rejects is the only copy of whatever it holds, so compaction
// must keep the journal instead of truncating those bytes away.
func TestStoreCompactKeepsUndecodableWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(4)
	if _, err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	journal := ir.AppendFrame(nil, []byte("frame from the future"))
	journal = append(journal, wal...)
	if err := os.WriteFile(walPath, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if !cst.KeptWAL {
		t.Fatal("compaction truncated a WAL holding an undecodable frame")
	}
	if cst.Entries != len(want) {
		t.Fatalf("compacted %d entries, want %d", cst.Entries, len(want))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
		t.Fatalf("WAL after keep-compaction: %v size %v, want intact", err, fi)
	}

	// The readable entries are in shards now AND still in the journal;
	// a later load still dedups to the same inventory.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	st, err := s3.Load(eval.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(want) || st.WALBadFrames != 1 {
		t.Fatalf("post-compaction load %+v, want %d entries / 1 bad frame", st, len(want))
	}
}

// TestStoreEntriesCanonicalOrder: the inventory is sorted by canonical
// key regardless of append order.
func TestStoreEntriesCanonicalOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ents := testEntries(16)
	for i := len(ents) - 1; i >= 0; i-- {
		if _, err := s.Append(ents[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1].Key(), got[i].Key()) >= 0 {
			t.Fatalf("inventory out of canonical order at %d", i)
		}
	}
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

// changedFiles lists the files that differ between two states or exist
// in only one.
func changedFiles(before, after map[string]string) []string {
	var out []string
	for name, b := range before {
		if a, ok := after[name]; !ok || a != b {
			out = append(out, name)
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// compactedStore fills a fresh store with ents and compacts it.
func compactedStore(t *testing.T, ents []eval.CacheEntry) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ents); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStoreCleanCompactWritesNothing: Load, then Append of everything
// loaded, then Compact — the warm re-run cycle — leaves every file's
// size, content and mtime unchanged and creates no file.
func TestStoreCleanCompactWritesNothing(t *testing.T) {
	dir := compactedStore(t, testEntries(64))
	before := freezeDir(t, dir)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := eval.NewCache()
	if _, err := s.Load(c); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Append(c.Export()); err != nil || n != 0 {
		t.Fatalf("append of loaded entries wrote %d (err %v), want 0", n, err)
	}
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs != (CompactStats{}) {
		t.Fatalf("clean compaction stats %+v, want zero", cs)
	}
	if ch := changedFiles(before, dirState(t, dir)); len(ch) > 0 {
		t.Fatalf("clean cycle touched %v", ch)
	}
}

// TestStoreCompactRewritesOnlyDirtyShard: one new entry rewrites only
// the shard it hashes to (plus truncating the WAL), and the result is
// byte-identical to compacting every entry from scratch.
func TestStoreCompactRewritesOnlyDirtyShard(t *testing.T) {
	all := testEntries(65)
	dir := compactedStore(t, all[:64])
	before := freezeDir(t, dir)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Load(eval.NewCache()); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Append(all); err != nil || n != 1 {
		t.Fatalf("append wrote %d (err %v), want the 1 new entry", n, err)
	}
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	dirty := shardName(shardOf(all[64].Key()))
	if cs.ShardFiles != 1 {
		t.Fatalf("rewrote %d shard files, want 1", cs.ShardFiles)
	}
	after := dirState(t, dir)
	if ch := changedFiles(before, after); !reflect.DeepEqual(ch, []string{dirty, walName}) {
		t.Fatalf("changed files %v, want [%s %s]", ch, dirty, walName)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL after compaction: %v size %v, want empty", err, fi)
	}

	fullDir := compactedStore(t, all)
	for name := range dirState(t, fullDir) {
		got, err1 := os.ReadFile(filepath.Join(dir, name))
		want, err2 := os.ReadFile(filepath.Join(fullDir, name))
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s differs from a full rewrite (%v, %v)", name, err1, err2)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c := eval.NewCache()
	if st, err := s2.Load(c); err != nil || st.Entries != len(all) {
		t.Fatalf("reload: %+v (err %v), want %d entries", st, err, len(all))
	}
	if got, want := c.Export(), loadAll(t, fullDir); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded %d entries, a full rewrite holds %d", len(got), len(want))
	}
}

// TestStoreCompactRewritesCorruptShard: a shard skipped as corrupt at
// load is rewritten by the next Compact even when the WAL is empty, and
// the store then loads clean.
func TestStoreCompactRewritesCorruptShard(t *testing.T) {
	dir := compactedStore(t, testEntries(64))
	victim := filepath.Join(dir, shardName(shardOf(testEntry(0).Key())))
	if err := os.WriteFile(victim, []byte("not a picola-ir file"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Load(eval.NewCache())
	if err != nil || st.SkippedShards != 1 {
		t.Fatalf("load: %+v (err %v), want 1 skipped shard", st, err)
	}
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.ShardFiles != 1 {
		t.Fatalf("rewrote %d shard files, want the corrupt one", cs.ShardFiles)
	}
	// Rewritten once; a second compaction has nothing left to do.
	if cs, err := s.Compact(); err != nil || cs.ShardFiles != 0 {
		t.Fatalf("second compaction rewrote %d shard files (err %v)", cs.ShardFiles, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st, err := s2.Load(nil); err != nil || st.SkippedShards != 0 {
		t.Fatalf("reload: %+v (err %v), want no skipped shard", st, err)
	}
}

// TestStoreAppendIdempotent: appending the same entries twice in one
// process writes them once, before and after a compaction.
func TestStoreAppendIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ents := testEntries(40)
	// Duplicates inside one call are written once too.
	if n, err := s.Append(append(ents[:20:20], ents...)); err != nil || n != len(ents) {
		t.Fatalf("first append wrote %d (err %v), want %d", n, err, len(ents))
	}
	walPath := filepath.Join(dir, walName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Append(ents); err != nil || n != 0 {
		t.Fatalf("second append wrote %d (err %v), want 0", n, err)
	}
	if fi2, err := os.Stat(walPath); err != nil || fi2.Size() != fi.Size() {
		t.Fatalf("second append grew the WAL: %v", err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Append(ents); err != nil || n != 0 {
		t.Fatalf("append after compaction wrote %d (err %v), want 0", n, err)
	}
	if got := loadAll(t, dir); len(got) != len(ents) {
		t.Fatalf("store holds %d entries, want %d", len(got), len(ents))
	}
}

// TestStoreLoadCounter: evalstore.load.entries counts what Load found,
// once — a compaction in the same cycle adds nothing to it.
func TestStoreLoadCounter(t *testing.T) {
	dir := compactedStore(t, testEntries(48))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := mLoadEntries.Value()
	st, err := s.Load(eval.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testEntries(64)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if d := mLoadEntries.Value() - before; d != int64(st.Entries) || st.Entries != 48 {
		t.Fatalf("load counter grew by %d, LoadStats.Entries = %d, want both 48", d, st.Entries)
	}
}
