package store

import (
	"bytes"
	"container/list"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Dir is a persistent content-addressed store: one "<hash>.json" blob
// per result under a single directory, which one server owns. Writes
// go to a temp file in the same directory and are renamed into place,
// so a reader — another process over the same directory included —
// either sees the whole blob or none of it, never a torn write. Blobs
// are immutable, so there is no overwrite path to race on.
//
// An in-memory index tracks recency for LRU eviction under entry and
// byte bounds; Opening a directory rebuilds the index from the blobs on
// disk (ordered by modification time), which is how results survive
// restarts. A Get for a hash absent from the index still probes the
// disk, so a blob another process wrote is found and adopted.
//
// Blobs this process did not write are input from outside it. Get never
// reads one larger than maxBlobBytes, and when a check is installed
// (SetCheck) a blob is served only once it passes; the index remembers
// a passed blob until its size or mtime changes.
type Dir struct {
	dir        string
	maxEntries int
	maxBytes   int64 // 0 = unbounded
	check      func(blob []byte) bool

	mu    sync.Mutex
	order *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64
}

type dirEntry struct {
	key     string
	size    int64
	mtime   int64 // UnixNano of the blob file when last read or written
	checked bool  // the blob at (size, mtime) passed the check
}

// maxBlobBytes caps the blob Get will read: anything larger is a miss,
// neither adopted nor served. It is set from the largest Result a
// config the serve tier accepts can produce. Validate bounds the core
// count, and the per-core parts of a Result are fixed-size, but not the
// number of apps or their names: those are bounded by the 1 MiB cap on
// one submitted config. A Result spends at most about 6 bytes on each
// config byte (an app name of '<' characters marshals as \u003c), so
// the largest is about 6 MiB over a fixed part of a few kilobytes
// (TestMaxBlobBytesCoversLargestResult builds it).
const maxBlobBytes = 8 << 20

// DefaultDirEntries bounds a directory store when OpenDir is given a
// non-positive entry cap.
const DefaultDirEntries = 4096

// MemoryMaxBytes bounds a Memory's payload whatever its entry capacity:
// a few thousand blobs of up to maxBlobBytes each could otherwise pin
// gigabytes. A typical Result blob is a few kilobytes, so the entry
// capacity binds first.
const MemoryMaxBytes = 64 << 20

// OpenDir opens (creating if needed) a directory store bounded to
// maxEntries blobs (<= 0 selects DefaultDirEntries) and maxBytes total
// payload (<= 0 leaves size unbounded). Existing blobs are indexed by
// modification time so eviction order survives restarts approximately.
func OpenDir(dir string, maxEntries int, maxBytes int64) (*Dir, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultDirEntries
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	d := &Dir{
		dir:        dir,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		items:      make(map[string]*list.Element),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	type onDisk struct {
		key   string
		size  int64
		mtime int64
	}
	var found []onDisk
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		key := strings.TrimSuffix(name, ".json")
		if !validHash(key) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, f := range found { // oldest first, so the newest ends up MRU
		d.items[f.key] = d.order.PushFront(&dirEntry{key: f.key, size: f.size, mtime: f.mtime})
		d.bytes += f.size
	}
	d.mu.Lock()
	d.evictLocked()
	d.mu.Unlock()
	return d, nil
}

func (d *Dir) blobPath(hash string) string {
	return filepath.Join(d.dir, hash+".json")
}

// validHash accepts only lowercase-hex content hashes (what
// Config.CanonicalHash emits), which doubles as the path-traversal
// guard: a key can never escape the store directory or collide with
// the temp-file prefix.
func validHash(h string) bool {
	if len(h) < 4 || len(h) > 128 {
		return false
	}
	for _, c := range h {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SetCheck installs the test a blob must pass before Get serves it,
// for blobs this process did not write itself. Call it before the Dir
// is shared between goroutines.
func (d *Dir) SetCheck(check func(blob []byte) bool) { d.check = check }

// Get returns the blob stored under hash. Index misses probe the disk
// so blobs written by another process are adopted; index hits whose
// file vanished (removed by another process), grew past maxBlobBytes
// or failed the check are dropped and miss.
func (d *Dir) Get(hash string) ([]byte, bool) {
	if !validHash(hash) {
		return nil, false
	}
	b, mtime, ok := readBlobFile(d.blobPath(hash))
	if ok && d.check != nil && !d.passed(hash, len(b), mtime) {
		ok = d.check(b)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	el, indexed := d.items[hash]
	if !ok {
		if indexed {
			d.dropLocked(el)
		}
		return nil, false
	}
	ent := &dirEntry{key: hash}
	if indexed {
		ent = el.Value.(*dirEntry)
		d.bytes -= ent.size
		d.order.MoveToFront(el)
	} else {
		d.items[hash] = d.order.PushFront(ent)
	}
	ent.size, ent.mtime, ent.checked = int64(len(b)), mtime, true
	d.bytes += ent.size
	if !indexed {
		d.evictLocked()
	}
	return b, true
}

// passed reports whether the indexed blob under hash already passed the
// check at this size and mtime.
func (d *Dir) passed(hash string, size int, mtime int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.items[hash]
	if !ok {
		return false
	}
	ent := el.Value.(*dirEntry)
	return ent.checked && ent.size == int64(size) && ent.mtime == mtime
}

// readBlobFile is the blob read Get makes; tests wrap it to count disk
// reads.
var readBlobFile = readBlob

// readBlob reads one blob file and its mtime. A file larger than
// maxBlobBytes is not read.
func readBlob(path string) ([]byte, int64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil || !info.Mode().IsRegular() || info.Size() > maxBlobBytes {
		return nil, 0, false
	}
	buf := bytes.NewBuffer(make([]byte, 0, info.Size()+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(f, maxBlobBytes+1)); err != nil || buf.Len() > maxBlobBytes {
		return nil, 0, false
	}
	return buf.Bytes(), info.ModTime().UnixNano(), true
}

// Put stores result under hash with an atomic temp-write + rename. A
// hash whose blob this Dir has already written or checked only has its
// recency refreshed (blobs are immutable); any other file under the
// hash is replaced. Eviction of least-recently-used blobs keeps the
// store within its entry and byte bounds.
func (d *Dir) Put(hash string, result []byte) error {
	if !validHash(hash) {
		return fmt.Errorf("store: invalid content hash %q", hash)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	el, indexed := d.items[hash]
	if indexed && el.Value.(*dirEntry).checked {
		d.order.MoveToFront(el)
		return nil
	}
	tmp, err := os.CreateTemp(d.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	if _, err := tmp.Write(result); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing blob: %w", err)
	}
	info, err := tmp.Stat()
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: closing blob: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.blobPath(hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publishing blob: %w", err)
	}
	if indexed {
		d.dropLocked(el)
	}
	ent := &dirEntry{key: hash, size: int64(len(result)), mtime: info.ModTime().UnixNano(), checked: true}
	d.items[hash] = d.order.PushFront(ent)
	d.bytes += ent.size
	d.evictLocked()
	return nil
}

// dropLocked removes one entry from the index, leaving its file alone.
// Caller holds d.mu.
func (d *Dir) dropLocked(el *list.Element) {
	ent := el.Value.(*dirEntry)
	d.bytes -= ent.size
	d.order.Remove(el)
	delete(d.items, ent.key)
}

// evictLocked removes least-recently-used blobs (index entry and file)
// until the store fits its bounds. A single blob larger than the byte
// bound is kept — an empty store would just re-admit it. Caller holds
// d.mu.
func (d *Dir) evictLocked() {
	for d.order.Len() > 0 {
		overEntries := d.order.Len() > d.maxEntries
		overBytes := d.maxBytes > 0 && d.bytes > d.maxBytes && d.order.Len() > 1
		if !overEntries && !overBytes {
			return
		}
		ent := d.order.Back().Value.(*dirEntry)
		d.dropLocked(d.order.Back())
		os.Remove(d.blobPath(ent.key))
	}
}

// Len reports the number of indexed blobs.
func (d *Dir) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.order.Len()
}

// Bytes reports the indexed payload size.
func (d *Dir) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}
