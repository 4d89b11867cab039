// Package evalstore is the persistent, content-addressed tier behind
// eval.Cache: minimization results keyed by the canonical (policy, nv,
// ON-bitset, used-bitset) signature, stored on disk so repeated corpora
// hit warm across runs and across machines. A memoized count is a pure
// function of its key, so the store can never change an answer — only
// replace an espresso run with a disk read.
//
// Layout under the store directory:
//
//	shard-00.ir … shard-0f.ir   compacted picola-ir/v1 CacheEntries
//	                            containers, entries assigned to shards
//	                            by FNV-1a of their canonical key
//	wal.irlog                   the append journal: length+CRC frames
//	                            (internal/ir framing), each payload one
//	                            picola-ir/v1 CacheEntries container
//
// The write cycle is append-then-atomic-rename: new entries are framed
// and appended to the WAL (one Write call per frame), and Compact folds
// the WAL into the shard files its entries hash to — each rewritten to
// a temp file and atomically renamed into place — before truncating the
// WAL. Shards no WAL entry touches are left alone, so a store with an
// empty WAL and no corrupt shard compacts to zero bytes written. A
// crash at any point loses at most the torn tail of the WAL: compaction
// truncates the journal only after every shard rename, so an
// interrupted cycle leaves duplicate entries (harmless — first wins),
// never missing ones.
//
// Loads are crash-safe by construction: a torn or corrupt shard file or
// WAL frame is skipped and counted, never fatal. Dropping cache entries
// costs recomputation time only.
package evalstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"picola/internal/eval"
	"picola/internal/ir"
	"picola/internal/obs"
)

// Store metrics: distinct entries found by Load, shard files and WAL
// frames skipped as corrupt, entries appended to the WAL, entries
// written by compactions, and the current on-disk entry count.
var (
	mLoadEntries  = obs.Default.Counter("evalstore.load.entries")
	mLoadSkipped  = obs.Default.Counter("evalstore.load.skipped_shards")
	mLoadBadFrame = obs.Default.Counter("evalstore.load.bad_frames")
	mAppended     = obs.Default.Counter("evalstore.append.entries")
	mCompacted    = obs.Default.Counter("evalstore.compact.entries")
	gEntries      = obs.Default.Gauge("evalstore.entries")
)

const (
	// storeShards is the on-disk shard fan-out. Sixteen files keep any
	// one compaction write small without turning a corpus cache into a
	// directory of thousands of files.
	storeShards = 16
	walName     = "wal.irlog"
)

func shardName(i int) string { return fmt.Sprintf("shard-%02x.ir", i) }

// shardOf assigns a canonical key to an on-disk shard (64-bit FNV-1a).
// The assignment is part of the layout: every process sharding the same
// key space places every entry in the same file.
func shardOf(key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % storeShards)
}

// Store is one on-disk cache directory. All methods are safe for
// concurrent use within a process; cross-process writers are safe
// against each other only for Append (O_APPEND frames), so compaction
// should be left to one process at a time (the batch runner compacts at
// exit).
type Store struct {
	dir string

	mu sync.Mutex
	// loaded reports that idx, corrupt and extra describe the directory
	// as this process last read it (Load, or Compact's own first read).
	loaded bool
	// idx[i] is the sorted key set of shard file i as loaded.
	idx [storeShards]keyIndex
	// corrupt[i] marks a shard file the load skipped; the next Compact
	// rewrites it.
	corrupt [storeShards]bool
	// extra holds the keys on disk that no loaded shard file holds:
	// read from the WAL, or appended by this process. With idx it is
	// everything Append must not write again.
	extra   map[string]struct{}
	entries int // len(extra) + the idx sizes: the on-disk entry count
	wal     *os.File
}

// Open opens (creating if needed) a store directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	return &Store{dir: dir, extra: make(map[string]struct{})}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the WAL handle (if any append opened it).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// keyIndex is a sorted set of canonical keys stored back to back: key i
// is buf[ends[i-1]:ends[i]] (ends[-1] being 0). It costs the key bytes
// plus one int per key, where a map of strings would cost a header, an
// allocation and a bucket slot each.
type keyIndex struct {
	buf  []byte
	ends []int
}

func (x *keyIndex) key(i int) []byte {
	lo := 0
	if i > 0 {
		lo = x.ends[i-1]
	}
	return x.buf[lo:x.ends[i]]
}

// has reports whether k is in the set (binary search).
func (x *keyIndex) has(k []byte) bool {
	lo, hi := 0, len(x.ends)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(x.key(mid), k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(x.ends) && bytes.Equal(x.key(lo), k)
}

// indexShard builds the key index of shard file i's entries. Compact
// writes every shard sorted by key and holding only keys that hash to
// it; a file breaking either rule was not written by Compact and is
// rejected (ok false) like an undecodable one.
func indexShard(i int, ents []eval.CacheEntry, sizeHint int) (x keyIndex, ok bool) {
	x.buf = make([]byte, 0, sizeHint)
	x.ends = make([]int, 0, len(ents))
	for j, ent := range ents {
		lo := len(x.buf)
		x.buf = ent.AppendKey(x.buf)
		k := x.buf[lo:]
		if shardOf(k) != i || j > 0 && bytes.Compare(x.key(j-1), k) >= 0 {
			return keyIndex{}, false
		}
		x.ends = append(x.ends, len(x.buf))
	}
	return x, true
}

// readShard decodes shard file i, returning its entries and the file
// size. A missing file is reported as os.ErrNotExist.
func (s *Store) readShard(i int) ([]eval.CacheEntry, int, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, shardName(i)))
	if err != nil {
		return nil, 0, err
	}
	f, err := ir.Unmarshal(b)
	if err != nil {
		return nil, 0, err
	}
	return f.CacheEntries, len(b), nil
}

// walScan is one read of the journal: the decoded frames in file order
// plus the skip accounting.
type walScan struct {
	frames    [][]eval.CacheEntry
	badFrames int
	tornBytes int
	size      int
}

func (s *Store) readWAL() (walScan, error) {
	var w walScan
	b, err := os.ReadFile(filepath.Join(s.dir, walName))
	if err != nil && !os.IsNotExist(err) {
		return w, fmt.Errorf("evalstore: %w", err)
	}
	payloads, clean := ir.ScanFrames(b)
	w.size, w.tornBytes = len(b), len(b)-clean
	for _, p := range payloads {
		f, err := ir.Unmarshal(p)
		if err != nil {
			w.badFrames++
			continue
		}
		w.frames = append(w.frames, f.CacheEntries)
	}
	return w, nil
}

// LoadStats describes one Load: what was read, what was skipped per
// failure class, and how the import into the in-memory tier went.
type LoadStats struct {
	// ShardFiles is the number of shard files read successfully.
	ShardFiles int
	// SkippedShards counts shard files present but unreadable or
	// corrupt — skipped, their entries lost to recomputation.
	SkippedShards int
	// WALFrames counts valid WAL frames read.
	WALFrames int
	// WALBadFrames counts frames whose payload was not a valid
	// picola-ir/v1 container (skipped).
	WALBadFrames int
	// WALTornBytes is the length of the torn tail dropped from the WAL.
	WALTornBytes int
	// Entries is the number of distinct entries found on disk.
	Entries int
	// Import is the per-class outcome of installing them into the
	// cache; zero when Load was given a nil cache. Entries the WAL
	// repeats count as Duplicate.
	Import eval.ImportStats
}

// Load reads every shard file and the WAL in one pass, importing each
// decoded batch straight into c (first wins, in shard order then WAL
// order — the cache's own dedup) unless c is nil, which only
// inventories the store. Torn or corrupt shard files and WAL frames are
// counted and skipped, never fatal; the only errors are environmental
// (an unreadable directory).
func (s *Store) Load(c *eval.Cache) (LoadStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.load(c)
	if err != nil {
		return st, err
	}
	mLoadEntries.Add(int64(st.Entries))
	return st, nil
}

// load is Load under the lock, without the load counter (Compact loads
// through it too).
func (s *Store) load(c *eval.Cache) (LoadStats, error) {
	var st LoadStats
	importBatch := func(batch []eval.CacheEntry) error {
		if c == nil {
			return nil
		}
		is, err := c.Import(batch)
		st.Import.Add(is)
		return err
	}
	var idx [storeShards]keyIndex
	var corrupt [storeShards]bool
	for i := range idx {
		ents, size, err := s.readShard(i)
		if os.IsNotExist(err) {
			continue
		}
		var ok bool
		if err == nil {
			idx[i], ok = indexShard(i, ents, size)
		}
		if !ok {
			corrupt[i] = true
			st.SkippedShards++
			mLoadSkipped.Inc()
			continue
		}
		st.ShardFiles++
		st.Entries += len(idx[i].ends)
		if err := importBatch(ents); err != nil {
			return st, err
		}
	}
	w, err := s.readWAL()
	if err != nil {
		return st, err
	}
	st.WALFrames, st.WALBadFrames, st.WALTornBytes = len(w.frames), w.badFrames, w.tornBytes
	mLoadBadFrame.Add(int64(w.badFrames))
	extra := make(map[string]struct{})
	var key []byte
	for _, batch := range w.frames {
		if err := importBatch(batch); err != nil {
			return st, err
		}
		for _, ent := range batch {
			key = ent.AppendKey(key[:0])
			if idx[shardOf(key)].has(key) {
				continue
			}
			if _, dup := extra[string(key)]; !dup {
				extra[string(key)] = struct{}{}
			}
		}
	}
	st.Entries += len(extra)
	s.loaded, s.idx, s.corrupt, s.extra, s.entries = true, idx, corrupt, extra, st.Entries
	gEntries.Set(int64(s.entries))
	return st, nil
}

// onDisk reports whether key is known to be on disk.
func (s *Store) onDisk(key []byte) bool {
	if s.idx[shardOf(key)].has(key) {
		return true
	}
	_, ok := s.extra[string(key)]
	return ok
}

// appendChunkEntries bounds one WAL frame's entry count. Chunking keeps
// every frame far inside the decoder's section caps — a corpus sweep
// can export millions of entries in one Append — and bounds the peak
// marshal buffer. A var so tests can exercise the multi-frame path with
// small batches.
var appendChunkEntries = 1 << 16

// Append frames the entries not already known to be on disk (loaded,
// or appended earlier by this process) and appends them to the WAL in
// canonical key order, chunked into frames of at most
// appendChunkEntries, returning how many entries were written.
// Appending is the cheap end of the compaction cycle: O_APPEND frame
// writes, no rewrite of any shard, and no file touched at all when
// nothing is new. A failure mid-way leaves the already written frames
// valid — the next load deduplicates.
func (s *Store) Append(entries []eval.CacheEntry) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var novel []eval.CacheEntry
	var key []byte
	for _, ent := range entries {
		key = ent.AppendKey(key[:0])
		if !s.onDisk(key) {
			novel = append(novel, ent)
		}
	}
	if len(novel) == 0 {
		return 0, nil
	}
	fresh, keys := sortedUnique(novel)
	if s.wal == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, walName),
			os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return 0, fmt.Errorf("evalstore: %w", err)
		}
		s.wal = f
	}
	written := 0
	for written < len(fresh) {
		end := min(written+appendChunkEntries, len(fresh))
		payload, err := ir.Marshal(&ir.File{CacheEntries: fresh[written:end]})
		if err != nil {
			return written, fmt.Errorf("evalstore: %w", err)
		}
		if err := ir.WriteFrame(s.wal, payload); err != nil {
			return written, fmt.Errorf("evalstore: %w", err)
		}
		for _, k := range keys[written:end] {
			s.extra[k] = struct{}{}
		}
		written = end
	}
	s.entries += written
	mAppended.Add(int64(written))
	gEntries.Set(int64(s.entries))
	return written, nil
}

// CompactStats describes one compaction.
type CompactStats struct {
	// Entries is the distinct entry count written across the rewritten
	// shards.
	Entries int
	// ShardFiles is the number of shard files rewritten.
	ShardFiles int
	// WALBytes is the journal size reclaimed by the truncation.
	WALBytes int64
	// KeptWAL reports that the journal was NOT truncated because it
	// still holds CRC-valid frames this decoder could not parse —
	// likely written by a different version. Truncating would destroy
	// the only copy of their entries; a torn tail (crash debris) never
	// sets this.
	KeptWAL bool
}

// Compact folds the WAL into the shard files its entries hash to, plus
// any shard the load found corrupt: each such shard's readable entries
// and its WAL entries are merged (first wins, shard before WAL), sorted
// by key, marshalled as one canonical picola-ir/v1 container, written
// to a temp file in the store directory and atomically renamed into
// place; then the WAL is truncated. Every other shard file is left
// untouched, so with an empty WAL and no corrupt shard Compact writes
// nothing at all. A CRC-valid WAL frame the decoder rejects keeps the
// journal in place (see CompactStats.KeptWAL). A crash mid-compaction
// is safe at every point: the WAL still holds everything not yet
// renamed, and duplicate entries between an old WAL and new shards
// deduplicate on the next load. A store never loaded by this process is
// loaded first (without a cache) to learn which shards are corrupt.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st CompactStats
	if !s.loaded {
		if _, err := s.load(nil); err != nil {
			return st, err
		}
	}
	w, err := s.readWAL()
	if err != nil {
		return st, err
	}
	dirty := s.corrupt
	var fromWAL [storeShards][]eval.CacheEntry
	var key []byte
	for _, batch := range w.frames {
		for _, ent := range batch {
			key = ent.AppendKey(key[:0])
			i := shardOf(key)
			fromWAL[i] = append(fromWAL[i], ent)
			dirty[i] = true
		}
	}
	for i := range dirty {
		if !dirty[i] {
			continue
		}
		// A shard corrupt at load (or unreadable now) is replaced by what
		// the WAL holds for it.
		var old []eval.CacheEntry
		if !s.corrupt[i] {
			old, _, _ = s.readShard(i)
		}
		merged, _ := sortedUnique(append(old, fromWAL[i]...))
		if err := s.writeShard(i, merged); err != nil {
			return st, err
		}
		s.corrupt[i] = false
		st.ShardFiles++
		st.Entries += len(merged)
	}
	mCompacted.Add(int64(st.Entries))
	if w.size == 0 {
		return st, nil
	}
	// Every readable WAL entry is now in a renamed shard. The journal is
	// redundant — unless it holds CRC-valid frames this decoder rejected
	// (a writer or version bug, not crash debris): those entries exist
	// nowhere else, so keep the journal for a future binary to recover.
	if w.badFrames > 0 {
		st.KeptWAL = true
		return st, nil
	}
	st.WALBytes = int64(w.size)
	if s.wal != nil {
		err = s.wal.Truncate(0)
	} else if err = os.Truncate(filepath.Join(s.dir, walName), 0); os.IsNotExist(err) {
		err = nil
	}
	if err != nil {
		return st, fmt.Errorf("evalstore: %w", err)
	}
	return st, nil
}

// sortedUnique returns ents sorted by canonical key with only the first
// of each equal-key run kept (callers list shard entries before WAL
// entries, in file order), and the kept entries' keys.
func sortedUnique(ents []eval.CacheEntry) ([]eval.CacheEntry, []string) {
	keys := make([]string, len(ents))
	ord := make([]int, len(ents))
	var key []byte
	for i, ent := range ents {
		key = ent.AppendKey(key[:0])
		keys[i], ord[i] = string(key), i
	}
	sort.Slice(ord, func(a, b int) bool {
		ka, kb := keys[ord[a]], keys[ord[b]]
		return ka < kb || ka == kb && ord[a] < ord[b]
	})
	out := make([]eval.CacheEntry, 0, len(ents))
	outKeys := make([]string, 0, len(ents))
	for j, i := range ord {
		if j == 0 || keys[i] != keys[ord[j-1]] {
			out = append(out, ents[i])
			outKeys = append(outKeys, keys[i])
		}
	}
	return out, outKeys
}

// writeShard replaces shard file i with one container holding ents:
// written to a temp file, then atomically renamed into place.
func (s *Store) writeShard(i int, ents []eval.CacheEntry) error {
	payload, err := ir.Marshal(&ir.File{CacheEntries: ents})
	if err != nil {
		return fmt.Errorf("evalstore: shard %d: %w", i, err)
	}
	tmp, err := os.CreateTemp(s.dir, shardName(i)+".tmp-*")
	if err != nil {
		return fmt.Errorf("evalstore: %w", err)
	}
	_, werr := tmp.Write(payload)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("evalstore: shard %d: write %v, close %v", i, werr, cerr)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, shardName(i))); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("evalstore: %w", err)
	}
	return nil
}

// Entries returns every distinct entry in the decodable shard files and
// WAL frames, in canonical key order (the inventory view: no in-memory
// cache bound applied — the full store is always returned).
func (s *Store) Entries() ([]eval.CacheEntry, error) {
	var all []eval.CacheEntry
	for i := 0; i < storeShards; i++ {
		if ents, _, err := s.readShard(i); err == nil {
			all = append(all, ents...)
		}
	}
	w, err := s.readWAL()
	if err != nil {
		return nil, err
	}
	for _, batch := range w.frames {
		all = append(all, batch...)
	}
	merged, _ := sortedUnique(all)
	return merged, nil
}
