package shardcache

import (
	"os"
	"path/filepath"
	"testing"

	"cspm/internal/graph"
	"cspm/internal/invdb"
)

func key(b byte) Key {
	var k Key
	k.Component[0] = b
	k.Global[31] = 0xee
	return k
}

func entry(n int) *Entry {
	e := &Entry{Iterations: n, GainEvals: 10 * n}
	for i := 0; i < n; i++ {
		e.Final = append(e.Final, invdb.LineStat{
			Core: invdb.CoresetID(i), Leaf: []graph.AttrID{graph.AttrID(i), graph.AttrID(i + 1)}, FL: i + 1,
		})
	}
	e.Init = cloneStats(e.Final)
	return e
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put(key(1), entry(1))
	c.Put(key(2), entry(2))
	if _, ok := c.Get(key(1)); !ok { // 1 now most recent
		t.Fatal("missing entry 1")
	}
	c.Put(key(3), entry(3)) // evicts 2, the least recent
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("entry 2 survived eviction")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("entry 1 evicted out of LRU order")
	}
	if _, ok := c.Get(key(3)); !ok {
		t.Fatal("entry 3 missing after insert")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 1 eviction over 2 entries", st)
	}
	// hits: 1(get1) + 1(get1) + 1(get3) = 3; misses: get2 = 1.
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 3 hits / 1 miss", st)
	}
}

func TestPutCopiesAndGetShares(t *testing.T) {
	c := New(0)
	e := entry(2)
	c.Put(key(9), e)
	e.Final[0].FL = 999
	e.Final[0].Leaf[0] = 999 // caller mutates its own slices after Put
	got, ok := c.Get(key(9))
	if !ok {
		t.Fatal("missing entry")
	}
	if got.Final[0].FL == 999 || got.Final[0].Leaf[0] == 999 {
		t.Fatal("Put aliased the caller's slices")
	}
}

func TestOverwriteSameKey(t *testing.T) {
	c := New(1)
	c.Put(key(1), entry(1))
	c.Put(key(1), entry(5))
	got, _ := c.Get(key(1))
	if got == nil || got.Iterations != 5 {
		t.Fatalf("overwrite not visible: %+v", got)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("overwrite evicted or duplicated: %+v", st)
	}
}

func TestRemove(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), entry(1))
	if !c.Remove(key(1)) {
		t.Fatal("Remove found nothing")
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("entry survived Remove")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.gob")); len(files) != 0 {
		t.Fatalf("disk blob survived Remove: %v", files)
	}
	if c.Remove(key(1)) {
		t.Fatal("second Remove claimed success")
	}
}

func TestDiskRoundTripAndEvictionSurvival(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(1, dir) // memory holds one entry
	if err != nil {
		t.Fatal(err)
	}
	want := entry(3)
	c.Put(key(1), want)
	c.Put(key(2), entry(4)) // evicts 1 from memory; disk blob remains
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats %+v, want one eviction", st)
	}
	got, ok := c.Get(key(1)) // served from disk, re-admitted
	if !ok {
		t.Fatal("evicted entry not recovered from disk")
	}
	if got.Iterations != want.Iterations || len(got.Final) != len(want.Final) ||
		got.Final[2].FL != want.Final[2].FL || got.Final[2].Leaf[1] != want.Final[2].Leaf[1] {
		t.Fatalf("disk round-trip mangled the entry: %+v", got)
	}

	// A second cache over the same directory sees the blobs (restart).
	c2, err := Open(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key(2)); !ok {
		t.Fatal("fresh cache missed a persisted blob")
	}
	if st := c2.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("fresh cache stats %+v", st)
	}
}

func TestCorruptBlobIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(7), entry(2))
	files, _ := filepath.Glob(filepath.Join(dir, "*.gob"))
	if len(files) != 1 {
		t.Fatalf("expected one blob, got %v", files)
	}
	if err := os.WriteFile(files[0], []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, _ := Open(0, dir)
	if _, ok := c2.Get(key(7)); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	if st := c2.Stats(); st.Misses != 1 {
		t.Fatalf("stats %+v, want one miss", st)
	}
}

func TestOpenRejectsEmptyDirAndCreatesMissing(t *testing.T) {
	if _, err := Open(0, ""); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
	nested := filepath.Join(t.TempDir(), "a", "b")
	if _, err := Open(0, nested); err != nil {
		t.Fatalf("Open did not create %s: %v", nested, err)
	}
	if fi, err := os.Stat(nested); err != nil || !fi.IsDir() {
		t.Fatalf("cache dir not created: %v", err)
	}
}

func TestUnboundedCapacity(t *testing.T) {
	c := New(0)
	for i := 0; i < 100; i++ {
		c.Put(key(byte(i)), entry(1))
	}
	if st := c.Stats(); st.Entries != 100 || st.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}
}

func TestPersistFlushesMemoryToDisk(t *testing.T) {
	mem := New(0)
	for i := byte(1); i <= 3; i++ {
		if err := mem.Put(key(i), entry(int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Persist(""); err == nil {
		t.Fatal("Persist accepted an empty directory")
	}
	dir := filepath.Join(t.TempDir(), "nested", "cache") // Persist must mkdir
	if err := mem.Persist(dir); err != nil {
		t.Fatal(err)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 3 {
		t.Fatalf("persisted %d blobs, want 3", len(blobs))
	}
	// A dir-backed cache over the flushed directory serves every entry.
	warm, err := Open(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 3; i++ {
		got, ok := warm.Get(key(i))
		if !ok {
			t.Fatalf("entry %d missing after persist", i)
		}
		if got.Iterations != int(i) || len(got.Final) != int(i) {
			t.Fatalf("entry %d round-tripped wrong: %+v", i, got)
		}
	}
	// Persisting a dir-backed cache to its own directory is an idempotent
	// rewrite of identical bytes.
	before, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Persist(dir); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("self-persist rewrote a blob with different bytes")
	}
}

// TestMemoSharedWithStoredCopy: a value derived on the entry handed to Put
// is the stored copy's value too, and it is built once.
func TestMemoSharedWithStoredCopy(t *testing.T) {
	c := New(0)
	e := entry(3)
	if err := c.Put(key(1), e); err != nil {
		t.Fatal(err)
	}
	builds := 0
	build := func(e *Entry) any { builds++; return len(e.Final) }
	if v := e.Memo(build); v != 3 {
		t.Fatalf("memo = %v, want 3", v)
	}
	got, _ := c.Get(key(1))
	if v := got.Memo(build); v != 3 || builds != 1 {
		t.Fatalf("stored copy's memo = %v after %d builds, want 3 after 1", v, builds)
	}
	if fresh := entry(3); fresh.Memo(build) != 3 || builds != 2 {
		t.Fatal("an unrelated entry reused another entry's memo")
	}
}

// TestEvictUnusedSinceKeepsWhatTheRunUsed: after Mark, only entries looked
// up or stored stay resident; their blobs stay on disk.
func TestEvictUnusedSinceKeepsWhatTheRunUsed(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 4; i++ {
		if err := c.Put(key(i), entry(int(i))); err != nil {
			t.Fatal(err)
		}
	}
	mark := c.Mark()
	c.Get(key(2))
	if err := c.Put(key(5), entry(5)); err != nil {
		t.Fatal(err)
	}
	if n := c.EvictUnusedSince(mark); n != 3 {
		t.Fatalf("evicted %d entries, want 3", n)
	}
	if c.Len() != 2 {
		t.Fatalf("%d entries resident, want 2", c.Len())
	}
	hits := c.Stats().Hits
	if _, ok := c.Get(key(1)); !ok || c.Stats().Hits != hits+1 {
		t.Fatal("an evicted entry's blob did not survive on disk")
	}
}

// TestEvictBlobsByManifestName drops exactly the named entries from memory.
func TestEvictBlobsByManifestName(t *testing.T) {
	c := New(0)
	for i := byte(1); i <= 3; i++ {
		if err := c.Put(key(i), entry(int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.EvictBlobs([]string{key(2).filename(), "absent.gob"}); n != 1 {
		t.Fatalf("evicted %d entries, want 1", n)
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("named entry still resident")
	}
	if c.Len() != 2 {
		t.Fatalf("%d entries resident, want 2", c.Len())
	}
}

// TestCheckpointWritesOnlyNewBlobs: a dir-backed cache checkpointing into
// its own directory leaves blobs Put already wrote in place (same file),
// lists their checksums, and marks every listed blob durable.
func TestCheckpointWritesOnlyNewBlobs(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 3; i++ {
		if err := c.Put(key(i), entry(int(i))); err != nil {
			t.Fatal(err)
		}
	}
	before := map[string]os.FileInfo{}
	for i := byte(1); i <= 3; i++ {
		fi, err := os.Stat(filepath.Join(dir, key(i).filename()))
		if err != nil {
			t.Fatal(err)
		}
		before[key(i).filename()] = fi
	}
	man := &Manifest{}
	if err := c.PersistManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if len(man.Blobs) != 3 {
		t.Fatalf("manifest lists %d blobs, want 3", len(man.Blobs))
	}
	for name, sum := range man.Blobs {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(fi, before[name]) {
			t.Fatalf("checkpoint rewrote %s", name)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if hashHex(data) != sum {
			t.Fatalf("manifest checksum of %s does not match its bytes", name)
		}
	}
	c.mu.Lock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if le := el.Value.(*lruEntry); !le.synced {
			t.Errorf("listed blob %s not fsync'd before the manifest commit", le.key.filename())
		}
	}
	c.mu.Unlock()

	// A blob deleted behind the cache's back is written afresh, not listed
	// unchecked.
	gone := key(2).filename()
	if err := os.Remove(filepath.Join(dir, gone)); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.byKey[key(2)].Value.(*lruEntry).synced = false
	c.mu.Unlock()
	man = &Manifest{}
	if err := c.PersistManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, gone))
	if err != nil || hashHex(data) != man.Blobs[gone] {
		t.Fatalf("deleted blob not restored under its checksum: %v", err)
	}
}
