package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func hashN(n int) string { return fmt.Sprintf("%064x", n+1) }

func TestMemoryLRU(t *testing.T) {
	m := NewMemory(2)
	m.Put(hashN(0), []byte("a"))
	m.Put(hashN(1), []byte("b"))
	if _, ok := m.Get(hashN(0)); !ok { // refresh 0 → 1 becomes LRU
		t.Fatal("miss on fresh entry")
	}
	m.Put(hashN(2), []byte("c"))
	if _, ok := m.Get(hashN(1)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if b, ok := m.Get(hashN(0)); !ok || !bytes.Equal(b, []byte("a")) {
		t.Fatalf("refreshed entry lost: %q %v", b, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("len %d, want 2", m.Len())
	}
}

func TestDirPutGetReload(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte(`{"cycles":12345}`)
	if err := d.Put(hashN(0), blob); err != nil {
		t.Fatal(err)
	}
	if b, ok := d.Get(hashN(0)); !ok || !bytes.Equal(b, blob) {
		t.Fatalf("get after put: %q %v", b, ok)
	}

	// A new store over the same directory — a restart — finds the blob.
	d2, err := OpenDir(dir, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Fatalf("reloaded len %d, want 1", d2.Len())
	}
	if b, ok := d2.Get(hashN(0)); !ok || !bytes.Equal(b, blob) {
		t.Fatalf("get after reload: %q %v", b, ok)
	}
}

func TestDirEntryEviction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Put(hashN(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() != 3 {
		t.Fatalf("len %d, want 3", d.Len())
	}
	for i := 0; i < 2; i++ { // oldest two evicted, files deleted
		if _, ok := d.Get(hashN(i)); ok {
			t.Fatalf("entry %d survived eviction", i)
		}
		if _, err := os.Stat(filepath.Join(dir, hashN(i)+".json")); !os.IsNotExist(err) {
			t.Fatalf("evicted blob %d still on disk: %v", i, err)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := d.Get(hashN(i)); !ok {
			t.Fatalf("entry %d missing", i)
		}
	}
}

func TestDirByteEviction(t *testing.T) {
	d, err := OpenDir(t.TempDir(), 100, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Put(hashN(i), make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() != 2 || d.Bytes() != 32 {
		t.Fatalf("len %d bytes %d, want 2/32", d.Len(), d.Bytes())
	}
	// A single blob over the bound is kept rather than thrashing.
	if err := d.Put(hashN(9), make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(hashN(9)); !ok {
		t.Fatal("oversized blob not retained")
	}
	if d.Len() != 1 {
		t.Fatalf("len %d, want 1 after oversized put", d.Len())
	}
}

// TestDirCrossReplicaAdoption models two processes over one directory:
// a blob written by one store instance is found by another whose index
// has never seen the hash.
func TestDirCrossReplicaAdoption(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDir(dir, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDir(dir, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte(`{"from":"process-b"}`)
	if err := b.Put(hashN(7), blob); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get(hashN(7)); !ok || !bytes.Equal(got, blob) {
		t.Fatalf("blob from another instance not adopted: %q %v", got, ok)
	}
	if a.Len() != 1 {
		t.Fatalf("adopted blob not indexed: len %d", a.Len())
	}
}

func TestDirRejectsBadKeys(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "abc", "../../../../etc/passwd", "ABCDEF1234", "deadbeef/x", "deadbeef.."} {
		if err := d.Put(key, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", key)
		}
		if _, ok := d.Get(key); ok {
			t.Fatalf("Get(%q) hit", key)
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("bad keys left %d files behind", len(entries))
	}
}

func TestTieredPromotion(t *testing.T) {
	fast := NewMemory(4)
	slow, err := OpenDir(t.TempDir(), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := Tiered(fast, slow)
	blob := []byte(`{"r":1}`)
	if err := st.Put(hashN(0), blob); err != nil {
		t.Fatal(err)
	}
	if fast.Len() != 1 || slow.Len() != 1 {
		t.Fatalf("write-through failed: fast %d slow %d", fast.Len(), slow.Len())
	}
	// Simulate a restart of the front tier: the back tier repopulates it.
	fast2 := NewMemory(4)
	st2 := Tiered(fast2, slow)
	if b, ok := st2.Get(hashN(0)); !ok || !bytes.Equal(b, blob) {
		t.Fatalf("tiered get: %q %v", b, ok)
	}
	if fast2.Len() != 1 {
		t.Fatal("back-tier hit not promoted")
	}
}

// TestSweepReplayStaysInMemory replays 300 stored keys cyclically
// twice through the serve tier's default memory tier over a directory:
// the first pass reads every blob from disk, the second none. An LRU
// under a cyclic scan of more keys than its capacity never hits, so at
// 128 entries the second pass would read all 300 again.
func TestSweepReplayStaysInMemory(t *testing.T) {
	const keys = 300
	d, err := OpenDir(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := d.Put(hashN(i), []byte(fmt.Sprintf(`{"r":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	reads := 0
	defer func(read func(string) ([]byte, int64, bool)) { readBlobFile = read }(readBlobFile)
	read := readBlobFile
	readBlobFile = func(path string) ([]byte, int64, bool) {
		reads++
		return read(path)
	}
	st := Tiered(NewMemory(DefaultDirEntries), d)
	for pass, want := range []int{keys, 0} {
		reads = 0
		for i := 0; i < keys; i++ {
			if b, ok := st.Get(hashN(i)); !ok || string(b) != fmt.Sprintf(`{"r":%d}`, i) {
				t.Fatalf("pass %d key %d: %q %v", pass, i, b, ok)
			}
		}
		if reads != want {
			t.Fatalf("pass %d read %d blobs from disk, want %d", pass, reads, want)
		}
	}
}

// TestMemoryByteCeiling: a memory tier with room for many more entries
// evicts by payload bytes once they pass MemoryMaxBytes, least recently
// used first, and keeps a lone value larger than the ceiling.
func TestMemoryByteCeiling(t *testing.T) {
	const blob = 1 << 20 // entries share one backing array
	val := make([]byte, blob)
	m := NewMemory(DefaultDirEntries)
	n := MemoryMaxBytes / blob
	for i := 0; i < n; i++ {
		m.Put(hashN(i), val)
	}
	if m.Len() != n || m.bytes != MemoryMaxBytes {
		t.Fatalf("at the ceiling: len %d bytes %d, want %d/%d", m.Len(), m.bytes, n, MemoryMaxBytes)
	}
	m.Get(hashN(0)) // 0 is now the most recently used; 1 the least
	m.Put(hashN(n), val[:blob/2])
	if _, ok := m.Get(hashN(1)); ok {
		t.Fatal("least recently used entry survived the byte ceiling")
	}
	if _, ok := m.Get(hashN(0)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if m.Len() != n || m.bytes != MemoryMaxBytes-blob/2 {
		t.Fatalf("after eviction: len %d bytes %d, want %d/%d", m.Len(), m.bytes, n, MemoryMaxBytes-blob/2)
	}
	// Refreshing an entry with a larger value evicts by the difference.
	m.Put(hashN(n), val)
	if m.Len() != n || m.bytes != MemoryMaxBytes {
		t.Fatalf("after refresh: len %d bytes %d, want %d/%d", m.Len(), m.bytes, n, MemoryMaxBytes)
	}
	big := make([]byte, MemoryMaxBytes+1)
	m.Put(hashN(n+1), big)
	if _, ok := m.Get(hashN(n + 1)); !ok || m.Len() != 1 {
		t.Fatalf("oversized value: len %d, want it kept alone", m.Len())
	}
}
