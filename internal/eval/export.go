package eval

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// CacheEntry is one memoized constraint minimization in portable form:
// the canonical (policy, nv, used-bitset, ON-bitset) signature the Cache
// keys on, plus the minimized cube count. It is the unit internal/ir
// serializes, so a warmed cache can be shipped between processes.
type CacheEntry struct {
	// Heuristic marks the espresso-policy entry (ConstraintCubesHeuristic);
	// false is the exact policy.
	Heuristic bool
	// NV is the code length; the bitsets span the 2^NV code space.
	NV int
	// Used is the used-code bitset (⌈2^NV/64⌉ words, little-endian bit
	// order); its complement is the don't-care set.
	Used []uint64
	// On is the ON-set bitset: the member codes.
	On []uint64
	// Cubes is the memoized minimized product-term count.
	Cubes int
}

// entryWords returns the bitset word count of a code space of nv bits.
func entryWords(nv int) int {
	return ((1 << uint(nv)) + 63) / 64
}

// parseCacheKey decodes one interned key (the keyBuf.cacheKey layout:
// tag byte, nv byte, used words LE, on words LE) into an entry.
func parseCacheKey(key string, cubes int) (CacheEntry, bool) {
	if len(key) < 2 {
		return CacheEntry{}, false
	}
	nv := int(key[1])
	w := entryWords(nv)
	if len(key) != 2+16*w {
		return CacheEntry{}, false
	}
	ent := CacheEntry{
		Heuristic: key[0] != 0,
		NV:        nv,
		Used:      make([]uint64, w),
		On:        make([]uint64, w),
		Cubes:     cubes,
	}
	for i := 0; i < w; i++ {
		ent.Used[i] = binary.LittleEndian.Uint64([]byte(key[2+8*i : 10+8*i]))
		ent.On[i] = binary.LittleEndian.Uint64([]byte(key[2+8*w+8*i : 10+8*w+8*i]))
	}
	return ent, true
}

// AppendKey appends the entry's canonical key bytes (the inverse of
// parseCacheKey) to dst and returns the extended slice, so callers
// hashing or comparing many keys can reuse one buffer.
func (ent CacheEntry) AppendKey(dst []byte) []byte {
	tag := byte(0)
	if ent.Heuristic {
		tag = 1
	}
	dst = append(dst, tag, byte(ent.NV))
	for _, words := range [][]uint64{ent.Used, ent.On} {
		for _, v := range words {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	}
	return dst
}

// Export snapshots every memoized entry in a deterministic order (sorted
// by raw key bytes). A nil cache exports nothing. Concurrent inserts may
// or may not be included; each exported entry is individually consistent.
func (c *Cache) Export() []CacheEntry { return c.export(false) }

// ExportFresh is Export restricted to the entries this cache computed
// itself: everything memoized except what Import installed. It is the
// part of the cache a persistent tier behind it has not seen yet, so a
// run whose every lookup hit an imported entry exports nothing.
func (c *Cache) ExportFresh() []CacheEntry { return c.export(true) }

func (c *Cache) export(freshOnly bool) []CacheEntry {
	if c == nil {
		return nil
	}
	var pairs []struct {
		key   string
		cubes int
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		if freshOnly && sh.fresh == 0 {
			sh.mu.RUnlock()
			continue
		}
		//lint:ignore detrange pair collection sorted by key below before any use
		for k, v := range sh.m {
			if freshOnly && !v.fresh {
				continue
			}
			pairs = append(pairs, struct {
				key   string
				cubes int
			}{k, int(v.cubes)})
		}
		sh.mu.RUnlock()
	}
	// The interned key bytes ARE the canonical order (AppendKey is the
	// identity round-trip of parseCacheKey), so sort the raw keys —
	// rebuilding a key per comparison would allocate O(n log n) times.
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].key < pairs[b].key })
	entries := make([]CacheEntry, 0, len(pairs))
	for _, p := range pairs {
		if ent, ok := parseCacheKey(p.key, p.cubes); ok {
			entries = append(entries, ent)
		}
	}
	return entries
}

// Key returns the canonical signature bytes of the entry — the same
// interned key the in-memory cache indexes by, and the content address
// the on-disk store shards by. Equal minimization inputs have equal
// keys whatever produced them.
func (ent CacheEntry) Key() []byte {
	return ent.AppendKey(make([]byte, 0, 2+16*entryWords(ent.NV)))
}

// ImportStats breaks one Import down by outcome class, so a store load
// that drops entries is debuggable instead of one lumped error: every
// entry lands in exactly one of Inserted, Duplicate, Oversize, BadNV,
// BadShape or BadCubes. Evicted counts previously memoized entries the
// import displaced (budget pressure), on top of the per-entry classes.
type ImportStats struct {
	// Inserted entries are now memoized.
	Inserted int
	// Duplicate entries were already memoized (first wins; an import
	// never changes an existing value, matching the compute path).
	Duplicate int
	// Oversize entries exceed the whole per-shard byte budget alone.
	Oversize int
	// BadNV entries declare a code length outside [1, cacheMaxNV].
	BadNV int
	// BadShape entries carry bitsets of the wrong word count for NV.
	BadShape int
	// BadCubes entries declare a cube count outside [0, 2^31).
	BadCubes int
	// Evicted is the number of older memoized entries evicted to fit
	// the inserted ones.
	Evicted int
}

// Skipped is the total of entries not inserted, across every class.
func (s ImportStats) Skipped() int {
	return s.Duplicate + s.Oversize + s.BadNV + s.BadShape + s.BadCubes
}

// Add accumulates another import's counts, for callers importing in
// batches.
func (s *ImportStats) Add(o ImportStats) {
	s.Inserted += o.Inserted
	s.Duplicate += o.Duplicate
	s.Oversize += o.Oversize
	s.BadNV += o.BadNV
	s.BadShape += o.BadShape
	s.BadCubes += o.BadCubes
	s.Evicted += o.Evicted
}

// String renders the non-zero classes, for logs.
func (s ImportStats) String() string {
	out := fmt.Sprintf("inserted %d", s.Inserted)
	for _, c := range []struct {
		n    int
		what string
	}{
		{s.Duplicate, "duplicate"}, {s.Oversize, "oversize"}, {s.BadNV, "bad-nv"},
		{s.BadShape, "bad-shape"}, {s.BadCubes, "bad-cubes"}, {s.Evicted, "evicted"},
	} {
		if c.n > 0 {
			out += fmt.Sprintf(", %s %d", c.what, c.n)
		}
	}
	return out
}

// Import installs entries into the cache. Invalid entries are skipped
// and counted per failure class — a malformed entry never aborts the
// rest of the batch — and the only error is importing into a nil cache.
// Importing never changes an existing memoized value: the first entry
// for a key wins, matching the compute path's semantics. Imported
// entries are never fresh (see ExportFresh).
func (c *Cache) Import(entries []CacheEntry) (ImportStats, error) {
	var st ImportStats
	if c == nil {
		return st, fmt.Errorf("eval: cannot import into a nil cache")
	}
	var key []byte
	for _, ent := range entries {
		if ent.NV < 1 || ent.NV > cacheMaxNV {
			st.BadNV++
			continue
		}
		if w := entryWords(ent.NV); len(ent.Used) != w || len(ent.On) != w {
			st.BadShape++
			continue
		}
		if ent.Cubes < 0 || ent.Cubes > math.MaxInt32 {
			st.BadCubes++
			continue
		}
		key = ent.AppendKey(key[:0])
		sh := &c.shards[fnvShard(key)]
		inserted, evicted, freed := sh.insertLocked(key, ent.Cubes, false, c.shardBudget)
		dup := !inserted && int64(len(key))+entryBytesOverhead <= c.shardBudget
		switch {
		case inserted:
			st.Inserted++
			st.Evicted += evicted
			noteInsert(int64(len(key))+entryBytesOverhead, evicted, freed)
		case dup:
			st.Duplicate++
		default:
			st.Oversize++
		}
	}
	return st, nil
}
