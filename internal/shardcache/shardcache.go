// Package shardcache stores per-shard mining results keyed by content
// fingerprints, turning repeated MineSharded runs over mostly-unchanged
// graphs into incremental jobs that only re-mine dirty component groups (see
// DESIGN.md "Shard-result cache").
//
// A cache entry holds exactly what the exact merge path consumes: the
// shard's line stats before any merge (baseline terms) and after its search
// (final terms), plus the run's iteration diagnostics. Both patterns and all
// canonical description lengths are pure functions of those line multisets,
// so replaying an entry is bit-identical to re-mining the group.
//
// The cache is an in-memory LRU with an optional on-disk layer: one gob blob
// per key under a directory, written atomically, loaded back on memory
// misses. Disk entries survive process restarts and LRU evictions, and the
// blob format doubles as the shard-result serialization format for
// distributed fan-out (ROADMAP "Distributed shards").
package shardcache

import (
	"bytes"
	"container/list"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"cspm/internal/graph"
	"cspm/internal/invdb"
)

// Key identifies one cached shard result: the component group's canonical
// fingerprint, the global attribute-context fingerprint it was priced
// under, and a digest of the search options that shape the result (variant,
// iteration cap, ablations). Line stats store interned AttrIDs, are costed
// against the global standard table, and depend on how the search was run,
// so a result is reusable exactly when all three parts match.
type Key struct {
	Component graph.Fingerprint
	Global    graph.Fingerprint
	Search    graph.Fingerprint
}

// filename is the on-disk blob name of the key (192 hex chars + extension).
func (k Key) filename() string {
	return k.Component.String() + "-" + k.Global.String() + "-" + k.Search.String() + ".gob"
}

// Entry is one cached shard result. Callers must treat a returned entry and
// everything it references as read-only: entries are shared across lookups.
type Entry struct {
	Init       []invdb.LineStat // lines before any merge
	Final      []invdb.LineStat // lines after the shard's search
	Iterations int              // merges the shard's search applied
	GainEvals  int              // gain evaluations the search performed

	// memo holds the value Memo derived from the line stats. Unexported, so
	// gob never encodes it; Put's copy shares the cell with its source.
	memo atomic.Pointer[memoCell]
}

type memoCell struct{ v atomic.Pointer[any] }

// cell returns e's memo cell, creating it on first use.
func (e *Entry) cell() *memoCell {
	if c := e.memo.Load(); c != nil {
		return c
	}
	e.memo.CompareAndSwap(nil, &memoCell{})
	return e.memo.Load()
}

// Memo returns the value build derives from e, building it once per entry
// content: the copy Put stores shares the result with the entry it was
// copied from, and concurrent first calls may both build but agree on one
// result. The value lives in memory only. build must derive it from e's
// exported fields without aliasing them, and e must not change after its
// memo is built.
func (e *Entry) Memo(build func(*Entry) any) any {
	c := e.cell()
	if p := c.v.Load(); p != nil {
		return *p
	}
	v := build(e)
	c.v.CompareAndSwap(nil, &v)
	return *c.v.Load()
}

// clone deep-copies e so cached state never aliases caller-owned slices
// (AppendLineStats leaf slices alias a DB's leafset table). The copy shares
// e's memo cell: its content is identical.
func (e *Entry) clone() *Entry {
	cp := &Entry{Iterations: e.Iterations, GainEvals: e.GainEvals}
	cp.Init = cloneStats(e.Init)
	cp.Final = cloneStats(e.Final)
	cp.memo.Store(e.cell())
	return cp
}

func cloneStats(stats []invdb.LineStat) []invdb.LineStat {
	out := make([]invdb.LineStat, len(stats))
	for i, s := range stats {
		out[i] = invdb.LineStat{Core: s.Core, Leaf: append([]graph.AttrID(nil), s.Leaf...), FL: s.FL}
	}
	return out
}

// Stats is a snapshot of the cache's lifetime counters.
type Stats struct {
	Hits          uint64 // lookups served from memory or disk
	Misses        uint64 // lookups that found nothing
	Evictions     uint64 // entries dropped from memory by the LRU bound
	PersistErrors uint64 // entries a Persist/PersistManifest failed to write
	Entries       int    // entries currently resident in memory
}

// Cache is a fingerprint-keyed shard-result cache: an LRU-bounded in-memory
// map with an optional on-disk layer. All methods are safe for concurrent
// use; blob encode/decode and file I/O run outside the mutex, so lookups of
// resident entries never stall behind another goroutine's disk traffic.
type Cache struct {
	mu        sync.Mutex
	capacity  int        // ≤0 = unbounded memory
	ll        *list.List // front = most recently used
	byKey     map[Key]*list.Element
	dir       string // "" = memory only; immutable after Open
	hits      uint64
	misses    uint64
	evictions uint64
	perErrs   uint64 // Persist/PersistManifest entry-write failures
	epoch     uint64 // advanced by Mark
}

// lruEntry is the list payload: the key rides along so eviction can index
// back into byKey.
type lruEntry struct {
	key   Key
	entry *Entry
	// sha is the SHA-256 (hex) of the entry's blob in the cache's own
	// directory, recorded when Put wrote it or a disk lookup read it; ""
	// when unknown. synced reports that the blob has been fsync'd.
	sha    string
	synced bool
	used   uint64 // the Mark epoch of the entry's latest lookup or store
}

// New returns a memory-only cache holding at most capacity entries
// (capacity ≤ 0 = unbounded).
func New(capacity int) *Cache {
	return &Cache{capacity: capacity, ll: list.New(), byKey: make(map[Key]*list.Element)}
}

// Open returns a cache backed by one gob blob per key under dir, creating
// the directory if needed. Memory still holds at most capacity entries; disk
// blobs survive evictions and process restarts.
func Open(capacity int, dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("shardcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shardcache: %w", err)
	}
	c := New(capacity)
	c.dir = dir
	return c, nil
}

// Dir reports the on-disk directory ("" for a memory-only cache).
func (c *Cache) Dir() string { return c.dir }

// Len reports the number of entries resident in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the lifetime counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		PersistErrors: c.perErrs, Entries: c.ll.Len()}
}

// Get returns the entry stored under k, consulting memory first and then the
// disk layer. A disk hit is re-admitted to memory. The returned entry is
// shared: callers must not mutate it.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.touch(el)
		c.hits++
		e := el.Value.(*lruEntry).entry
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if e, sum, ok := c.loadDisk(k); ok {
			c.mu.Lock()
			if el, raced := c.byKey[k]; raced {
				// Another goroutine admitted the key while we read disk;
				// prefer the resident entry so all holders share one copy.
				c.touch(el)
				e = el.Value.(*lruEntry).entry
			} else {
				c.admit(k, e).sha = sum
			}
			c.hits++
			c.mu.Unlock()
			return e, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores a deep copy of e under k in memory (evicting LRU entries past
// the capacity bound) and, when a directory is configured, as a gob blob on
// disk, recording the blob's checksum so later checkpoints need not encode
// the entry again.
func (c *Cache) Put(k Key, e *Entry) error {
	cp := e.clone()
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		*el.Value.(*lruEntry) = lruEntry{key: k, entry: cp}
		c.touch(el)
	} else {
		c.admit(k, cp)
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	// cp is shared read-only once admitted, so encoding it unlocked is safe.
	blob, err := encodeEntry(cp)
	if err == nil {
		err = writeFileAtomic(c.dir, k.filename(), blob, false)
	}
	if err != nil {
		return err
	}
	c.recordBlob(k, cp, hashHex(blob), false)
	return nil
}

// recordBlob notes that the blob of k holds e and hashes to sum, unless k has
// been stored again (or dropped) since.
func (c *Cache) recordBlob(k Key, e *Entry, sum string, synced bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		if le := el.Value.(*lruEntry); le.entry == e {
			le.sha, le.synced = sum, synced
		}
	}
}

// Persist writes every entry currently resident in memory as a blob under
// dir (creating it if needed), using the same atomic one-gob-blob-per-key
// format as the disk layer (temp file + rename, so a crash mid-write leaves
// either the old blob or none) — a memory-only cache can be flushed at
// shutdown and re-opened later with Open for a warm start. A dir-backed
// cache flushing to its own directory skips entries whose blob it already
// wrote or read there. A failed entry is non-fatal: the rest still persist,
// the failure count feeds the PersistErrors stat, and the aggregated error
// of every failed entry is returned.
func (c *Cache) Persist(dir string) error {
	_, err := c.persistEntries(dir, false)
	return err
}

// persistEntries is the shared flush path behind Persist and
// PersistManifest. With durable set it returns each blob's SHA-256 (hex)
// keyed by file name, and every returned blob has been fsync'd together
// with dir; failed entries are counted, skipped in the sums, and aggregated
// into the returned error.
func (c *Cache) persistEntries(dir string, durable bool) (map[string]string, error) {
	if dir == "" {
		return nil, fmt.Errorf("shardcache: empty persist directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shardcache: %w", err)
	}
	own := c.dir != "" && filepath.Clean(dir) == filepath.Clean(c.dir)
	// Snapshot the resident set under the mutex, write outside it: entries
	// are shared read-only once admitted, so encoding unlocked is safe and
	// concurrent lookups never stall behind the flush.
	c.mu.Lock()
	snapshot := make([]lruEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		snapshot = append(snapshot, *el.Value.(*lruEntry))
	}
	c.mu.Unlock()
	var sums map[string]string
	if durable {
		sums = make(map[string]string, len(snapshot))
	}
	var errs []error
	var fsynced []lruEntry // blobs Put wrote, durable once dir is synced too
	for _, le := range snapshot {
		name := le.key.filename()
		if own && le.sha != "" {
			if !durable {
				continue
			}
			if le.synced || syncFile(filepath.Join(dir, name)) == nil {
				sums[name] = le.sha
				if !le.synced {
					fsynced = append(fsynced, le)
				}
				continue
			}
			// The recorded blob is gone or unreadable: write it afresh.
		}
		blob, err := encodeEntry(le.entry)
		if err == nil {
			err = writeFileAtomic(dir, name, blob, durable)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		sum := hashHex(blob)
		if own {
			c.recordBlob(le.key, le.entry, sum, durable)
		}
		if durable {
			sums[name] = sum
		}
	}
	if len(fsynced) > 0 {
		// Put renamed these blobs into dir without a directory fsync.
		if err := syncDir(dir); err != nil {
			return nil, fmt.Errorf("shardcache: %w", err)
		}
		for _, le := range fsynced {
			c.recordBlob(le.key, le.entry, le.sha, true)
		}
	}
	if len(errs) > 0 {
		c.mu.Lock()
		c.perErrs += uint64(len(errs))
		c.mu.Unlock()
		return sums, fmt.Errorf("shardcache: %d of %d entries failed to persist: %w",
			len(errs), len(snapshot), errors.Join(errs...))
	}
	return sums, nil
}

// Mark starts a new use epoch and returns it: every entry looked up or
// stored from now on counts as used since the mark (see EvictUnusedSince).
func (c *Cache) Mark() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	return c.epoch
}

// EvictUnusedSince drops from memory every resident entry not looked up or
// stored since mark was returned, and reports how many it dropped. Disk
// blobs are untouched. After a mining run between Mark and this call, memory
// holds exactly the entries that run used.
func (c *Cache) EvictUnusedSince(mark uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictLocked(func(le *lruEntry) bool { return le.used < mark })
}

// EvictBlobs drops from memory the resident entries whose blob file names
// (as listed in a Manifest) are in names, and reports how many it dropped.
// Disk blobs are untouched: this is how a caller that replaced blobs on disk
// makes the next lookups read the new bytes.
func (c *Cache) EvictBlobs(names []string) int {
	if len(names) == 0 {
		return 0
	}
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictLocked(func(le *lruEntry) bool { return drop[le.key.filename()] })
}

// evictLocked removes the resident entries matching drop. Caller holds c.mu.
func (c *Cache) evictLocked(drop func(*lruEntry) bool) int {
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if le := el.Value.(*lruEntry); drop(le) {
			c.ll.Remove(el)
			delete(c.byKey, le.key)
			n++
		}
		el = next
	}
	return n
}

// Purge drops every entry resident in memory. Disk blobs are untouched (use
// QuarantineDir to distrust those); the next lookups repopulate from disk or
// miss. Purge is how a server discards a cache whose recovered state failed
// checksum verification.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.byKey = make(map[Key]*list.Element)
}

// Remove invalidates k in both layers, reporting whether anything existed.
func (c *Cache) Remove(k Key) bool {
	c.mu.Lock()
	removed := false
	if el, ok := c.byKey[k]; ok {
		c.ll.Remove(el)
		delete(c.byKey, k)
		removed = true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if err := os.Remove(filepath.Join(c.dir, k.filename())); err == nil {
			removed = true
		}
	}
	return removed
}

// admit inserts a fresh entry at the LRU front and enforces the capacity
// bound. Caller holds c.mu.
func (c *Cache) admit(k Key, e *Entry) *lruEntry {
	le := &lruEntry{key: k, entry: e, used: c.epoch}
	c.byKey[k] = c.ll.PushFront(le)
	for c.capacity > 0 && c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.byKey, back.Value.(*lruEntry).key)
		c.evictions++
	}
	return le
}

// touch marks a resident entry most recently used. Caller holds c.mu.
func (c *Cache) touch(el *list.Element) {
	c.ll.MoveToFront(el)
	el.Value.(*lruEntry).used = c.epoch
}

// loadDisk decodes the blob of k and returns it with the blob's checksum,
// treating any read or decode failure as a miss: a truncated or tampered
// blob must never poison a mining run with a partial entry. Runs unlocked
// (c.dir is immutable).
func (c *Cache) loadDisk(k Key) (*Entry, string, bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, k.filename()))
	if err != nil {
		return nil, "", false
	}
	e := &Entry{}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(e); err != nil {
		return nil, "", false
	}
	return e, hashHex(data), true
}

// encodeEntry gob-encodes e into a byte slice, so callers can checksum the
// exact bytes that hit disk.
func encodeEntry(e *Entry) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, fmt.Errorf("shardcache: %w", err)
	}
	return buf.Bytes(), nil
}

// writeFileAtomic writes data as dir/name via temp file + rename. With sync
// set it fsyncs the temp file before the rename and the directory after, so
// the rename is a durable commit point and not just an atomic one.
func writeFileAtomic(dir, name string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("shardcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("shardcache: %w", err)
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("shardcache: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("shardcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("shardcache: %w", err)
	}
	if sync {
		if err := syncDir(dir); err != nil {
			return fmt.Errorf("shardcache: %w", err)
		}
	}
	return nil
}

// syncFile fsyncs an existing file.
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
