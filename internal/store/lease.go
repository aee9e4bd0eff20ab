package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Leases let server replicas that share one store directory run each
// cold hash once between them. A replica claims a hash before executing
// it by creating a lease file under <dir>/.leases/ with O_CREATE|O_EXCL,
// keeps the lease fresh while the run executes (Renew), publishes the
// blob, and then drops the lease (Release), which it does whatever the
// run's outcome. A replica that finds a live lease waits for the blob
// instead of executing. Only a holder that dies without releasing leaves
// a lease file behind; the next claim of its hash removes it.
//
// Lease files are named <hash>.<gen>. A lease is stale once its mtime is
// older than LeaseTTL; a claimer that finds generation g stale takes the
// hash over by creating g+1. Every claim, takeovers included, is one
// O_EXCL create of a name no one has created before, so it has exactly
// one winner, and only the winner of g+1 removes g. A lease is never
// renamed: a slow taker could otherwise rename away a lease that had
// just become fresh again.
//
// Staleness compares a lease's mtime, set by the holder's clock, with
// the reader's clock, so replicas (and the volume) must agree on the
// time to well within LeaseTTL. A holder that stalls for longer than
// LeaseTTL loses its lease and the hash may run twice; both runs write
// the same bytes.
//
// File names come from other processes: they are parsed strictly and
// anything malformed is ignored. Lease contents are never read.

// LeaseTTL is how long a lease stays live without renewal. A holder
// renews well within it; a lease older than this is an orphan of a
// replica that died (or gave up the run) and may be taken over.
const LeaseTTL = 8 * time.Second

// ErrLeased is returned by Claim while another holder's lease on the
// hash is live.
var ErrLeased = errors.New("store: hash is leased by another holder")

// leaseDir is the subdirectory holding lease files. OpenDir indexes
// only regular files, so leases never mix with blobs.
const leaseDir = ".leases"

// cancelSuffix names the file that asks a lease's holder to cancel its
// run (see RequestCancel).
const cancelSuffix = ".cancel"

// Lease is one held claim on a hash.
type Lease struct {
	d    *Dir
	hash string
	gen  uint64
}

// TookOver reports whether the claim replaced a stale lease: the hash's
// previous holder died without releasing it.
func (l *Lease) TookOver() bool { return l.gen > 1 }

func (d *Dir) leasePath(hash string, gen uint64) string {
	return filepath.Join(d.dir, leaseDir, hash+"."+strconv.FormatUint(gen, 10))
}

func (d *Dir) cancelPath(hash string) string {
	return filepath.Join(d.dir, leaseDir, hash+cancelSuffix)
}

// parseGen parses the generation suffix of a lease file name: a decimal
// without sign or leading zeros, at least 1, that fits a uint64.
func parseGen(s string) (uint64, bool) {
	if s == "" || len(s) > 19 || s[0] == '0' {
		return 0, false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	g, err := strconv.ParseUint(s, 10, 64)
	return g, err == nil
}

// leaseState lists hash's lease files: every generation present, and
// whether the newest one is live.
func (d *Dir) leaseState(hash string) (gens []uint64, live bool, err error) {
	entries, err := os.ReadDir(filepath.Join(d.dir, leaseDir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: reading leases: %w", err)
	}
	prefix := hash + "."
	var top fs.DirEntry
	var topGen uint64
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, prefix) {
			continue
		}
		g, ok := parseGen(name[len(prefix):])
		if !ok {
			continue
		}
		gens = append(gens, g)
		if g > topGen {
			top, topGen = e, g
		}
	}
	if top != nil {
		if info, err := top.Info(); err == nil {
			live = time.Since(info.ModTime()) < LeaseTTL
		}
	}
	return gens, live, nil
}

// Claim takes the lease on hash, or returns ErrLeased while another
// holder's lease is live. A stale lease is taken over (see TookOver).
// The lease stays live while Renew runs at least once per LeaseTTL.
func (d *Dir) Claim(hash string) (*Lease, error) {
	if !validHash(hash) {
		return nil, fmt.Errorf("store: invalid content hash %q", hash)
	}
	gens, live, err := d.leaseState(hash)
	if err != nil {
		return nil, err
	}
	if live {
		return nil, ErrLeased
	}
	var next uint64 = 1
	for _, g := range gens {
		next = max(next, g+1)
	}
	path := d.leasePath(hash, next)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		}
	}
	if errors.Is(err, fs.ErrExist) {
		return nil, ErrLeased
	}
	if err != nil {
		return nil, fmt.Errorf("store: creating lease: %w", err)
	}
	f.Close()
	// Won: the stale generations are ours to remove, and a cancel request
	// left for an earlier holder does not apply to this run.
	for _, g := range gens {
		os.Remove(d.leasePath(hash, g))
	}
	os.Remove(d.cancelPath(hash))
	l := &Lease{d: d, hash: hash, gen: next}
	d.leaseMu.Lock()
	d.held[l] = struct{}{}
	d.leaseMu.Unlock()
	return l, nil
}

// Release drops a lease once its run is over, published or not, with
// any cancel request left for it. The request goes first: one written
// after the lease file is gone may be meant for the next holder. A lease
// file that cannot be removed is only a delay: it goes stale within
// LeaseTTL and its taker removes it.
func (l *Lease) Release() {
	l.d.leaseMu.Lock()
	delete(l.d.held, l)
	l.d.leaseMu.Unlock()
	os.Remove(l.d.cancelPath(l.hash))
	os.Remove(l.d.leasePath(l.hash, l.gen))
}

// Renew refreshes every lease this Dir holds and returns the hashes
// among them whose cancellation another process has requested (each
// request is consumed). A lease that can no longer be touched was taken
// over by a claimer that judged it stale; it is forgotten, and its run
// finishes unleased. Call it from one goroutine, well within LeaseTTL.
func (d *Dir) Renew() (cancel []string) {
	d.leaseMu.Lock()
	defer d.leaseMu.Unlock()
	now := time.Now()
	for l := range d.held {
		if os.Chtimes(d.leasePath(l.hash, l.gen), now, now) != nil {
			delete(d.held, l)
			continue
		}
		if os.Remove(d.cancelPath(l.hash)) == nil {
			cancel = append(cancel, l.hash)
		}
	}
	return cancel
}

// Leased reports whether any holder has a live lease on hash.
func (d *Dir) Leased(hash string) bool {
	if !validHash(hash) {
		return false
	}
	_, live, err := d.leaseState(hash)
	return err == nil && live
}

// RequestCancel asks the holder of hash's lease, whichever process it
// is, to cancel its run; the holder sees the request on its next Renew.
// A request that finds no live lease once written is withdrawn, so
// requests do not outlive the runs they were for.
func (d *Dir) RequestCancel(hash string) error {
	if !validHash(hash) {
		return fmt.Errorf("store: invalid content hash %q", hash)
	}
	if err := os.WriteFile(d.cancelPath(hash), nil, 0o644); err != nil {
		return fmt.Errorf("store: requesting cancel: %w", err)
	}
	if !d.Leased(hash) {
		os.Remove(d.cancelPath(hash))
	}
	return nil
}
