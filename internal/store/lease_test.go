package store

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nocstar/internal/system"
	"nocstar/internal/workload"
)

// backdate makes every lease file of hash stale, as if its holder had
// died LeaseTTL ago without renewing.
func backdate(t *testing.T, dir, hash string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, leaseDir, hash+".*"))
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * LeaseTTL)
	for _, f := range files {
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}
}

// leaseFiles lists the names under the lease directory.
func leaseFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, leaseDir))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestClaimExclusive races several Dir instances over one directory —
// replicas sharing a volume — to claim a hash, and then, round after
// round, to take over the winner's lease once it goes stale. Every
// round has exactly one winner, holding the next generation, and only
// its lease file remains.
func TestClaimExclusive(t *testing.T) {
	dir := t.TempDir()
	const replicas = 8
	ds := make([]*Dir, replicas)
	for i := range ds {
		d, err := OpenDir(dir, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	hash := hashN(42)
	for gen := uint64(1); gen <= 5; gen++ {
		if gen > 1 {
			backdate(t, dir, hash)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		leases := make([]*Lease, replicas)
		errs := make([]error, replicas)
		for i, d := range ds {
			wg.Add(1)
			go func(i int, d *Dir) {
				defer wg.Done()
				<-start
				leases[i], errs[i] = d.Claim(hash)
			}(i, d)
		}
		close(start)
		wg.Wait()
		var won *Lease
		for i := range ds {
			switch {
			case errs[i] == nil && won == nil:
				won = leases[i]
			case errs[i] == nil:
				t.Fatalf("generation %d: two winners", gen)
			case !errors.Is(errs[i], ErrLeased):
				t.Fatalf("generation %d: claim error %v", gen, errs[i])
			}
		}
		if won == nil {
			t.Fatalf("generation %d: no winner", gen)
		}
		if won.gen != gen || won.TookOver() != (gen > 1) {
			t.Fatalf("winner holds generation %d (took over %v), want %d", won.gen, won.TookOver(), gen)
		}
		if got := leaseFiles(t, dir); len(got) != 1 || got[0] != hash+"."+strconv.FormatUint(gen, 10) {
			t.Fatalf("generation %d: lease files %v", gen, got)
		}
		for _, d := range ds {
			if !d.Leased(hash) {
				t.Fatalf("generation %d: live lease not seen", gen)
			}
		}
	}
}

// TestLeaseLifecycle: a released lease frees the hash at once with no
// takeover; a stale one left by a holder that never released is taken
// over; a renewed lease stays live past LeaseTTL's worth of backdating.
func TestLeaseLifecycle(t *testing.T) {
	dir := t.TempDir()
	a, _ := OpenDir(dir, 16, 0)
	b, _ := OpenDir(dir, 16, 0)
	hash := hashN(1)

	la, err := a.Claim(hash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Claim(hash); !errors.Is(err, ErrLeased) {
		t.Fatalf("claim of a live lease: %v, want ErrLeased", err)
	}
	// Renewal keeps an old lease live.
	backdate(t, dir, hash)
	if b.Leased(hash) {
		t.Fatal("backdated lease still live")
	}
	if cancel := a.Renew(); len(cancel) != 0 {
		t.Fatalf("renew reported cancels %v", cancel)
	}
	if !b.Leased(hash) {
		t.Fatal("renewed lease not live")
	}

	la.Release()
	if b.Leased(hash) || len(leaseFiles(t, dir)) != 0 {
		t.Fatalf("released lease left %v", leaseFiles(t, dir))
	}
	lb, err := b.Claim(hash)
	if err != nil || lb.TookOver() {
		t.Fatalf("claim after release: %v, took over %v", err, lb != nil && lb.TookOver())
	}

	// b dies holding its lease: it goes stale and a takes it over.
	backdate(t, dir, hash)
	la, err = a.Claim(hash)
	if err != nil || !la.TookOver() {
		t.Fatalf("claim of a stale lease: %v, want a takeover", err)
	}
	// b's lease file is gone: renewing forgets it and touches nothing of
	// a's, and a late release of it leaves a's lease alone.
	b.Renew()
	lb.Release()
	if !b.Leased(hash) {
		t.Fatal("the taker's lease lost to the stale holder's renew or release")
	}
	la.Release()
	if got := leaseFiles(t, dir); len(got) != 0 {
		t.Fatalf("lease files left behind: %v", got)
	}
}

// TestLeaseCancelRequest: a cancel request written by any process
// reaches the holder's next Renew once; a request the holder never saw
// goes with its lease, and one for a hash no one holds is withdrawn, so
// no request is left to cancel the next holder's run.
func TestLeaseCancelRequest(t *testing.T) {
	dir := t.TempDir()
	holder, _ := OpenDir(dir, 16, 0)
	other, _ := OpenDir(dir, 16, 0)
	hash := hashN(2)
	l, err := holder.Claim(hash)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RequestCancel(hash); err != nil {
		t.Fatal(err)
	}
	if got := holder.Renew(); len(got) != 1 || got[0] != hash {
		t.Fatalf("renew reported %v, want [%s]", got, hash)
	}
	if got := holder.Renew(); len(got) != 0 {
		t.Fatalf("cancel request delivered twice: %v", got)
	}
	if err := other.RequestCancel(hash); err != nil {
		t.Fatal(err)
	}
	l.Release()
	if got := leaseFiles(t, dir); len(got) != 0 {
		t.Fatalf("release left %v", got)
	}
	if err := other.RequestCancel(hash); err != nil {
		t.Fatal(err)
	}
	if got := leaseFiles(t, dir); len(got) != 0 {
		t.Fatalf("cancel request for an unleased hash left %v", got)
	}
	l2, err := other.Claim(hash)
	if err != nil {
		t.Fatal(err)
	}
	if got := other.Renew(); len(got) != 0 {
		t.Fatalf("stale cancel request reached the next holder: %v", got)
	}
	l2.Release()
}

// TestLeaseNamesStrict plants malformed lease names, and a directory
// with a well-formed one. None of them is a lease: the hash is free,
// and a claim takes generation 1.
func TestLeaseNamesStrict(t *testing.T) {
	dir := t.TempDir()
	d, _ := OpenDir(dir, 16, 0)
	hash := hashN(3)
	if err := os.MkdirAll(filepath.Join(dir, leaseDir, hash+".7"), 0o755); err != nil {
		t.Fatal(err)
	}
	junk := []string{
		hash + ".0", hash + ".01", hash + ".-1", hash + ".+1", hash + ".1x", hash + ". 1",
		hash + ".99999999999999999999", hash + ".cancel", hash, hash + "..1", "x." + hash + ".1",
	}
	for _, name := range junk {
		if err := os.WriteFile(filepath.Join(dir, leaseDir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if d.Leased(hash) {
		t.Fatal("malformed names read as a live lease")
	}
	l, err := d.Claim(hash)
	if err != nil || l.gen != 1 {
		t.Fatalf("claim among malformed names: %v", err)
	}
	l.Release()
	// The winner clears the hash's cancel request and nothing else: the
	// other junk files and the directory stay.
	if got := leaseFiles(t, dir); len(got) != len(junk)-1+1 {
		t.Fatalf("claim disturbed planted files: %v", got)
	}
	if _, err := d.Claim("../../etc"); err == nil {
		t.Fatal("claim of an invalid hash accepted")
	}
}

// TestDirGetCapsAndChecks: a blob over maxBlobBytes and a blob failing
// the check are misses, neither adopted nor served; a Put replaces the
// rejected file; a checked blob is checked again only once it changes.
func TestDirGetCapsAndChecks(t *testing.T) {
	dir := t.TempDir()
	d, _ := OpenDir(dir, 16, 0)
	checks := 0
	d.SetCheck(func(b []byte) bool { checks++; return json.Valid(b) })

	big := filepath.Join(dir, hashN(0)+".json")
	f, err := os.Create(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(maxBlobBytes + 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := d.Get(hashN(0)); ok || d.Len() != 0 {
		t.Fatalf("oversized blob served or adopted (len %d)", d.Len())
	}

	bad := filepath.Join(dir, hashN(1)+".json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(hashN(1)); ok || d.Len() != 0 {
		t.Fatal("blob failing the check served or adopted")
	}
	good := []byte(`{"ok":true}`)
	if err := d.Put(hashN(1), good); err != nil {
		t.Fatal(err)
	}
	if b, ok := d.Get(hashN(1)); !ok || string(b) != string(good) {
		t.Fatalf("put did not replace the rejected blob: %q %v", b, ok)
	}

	ok := filepath.Join(dir, hashN(2)+".json")
	if err := os.WriteFile(ok, good, 0o644); err != nil {
		t.Fatal(err)
	}
	checks = 0
	for i := 0; i < 3; i++ {
		if _, hit := d.Get(hashN(2)); !hit {
			t.Fatal("adopted blob missed")
		}
	}
	if checks != 1 {
		t.Fatalf("unchanged blob checked %d times, want 1", checks)
	}
	later := time.Now().Add(time.Minute)
	if err := os.WriteFile(ok, []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Chtimes(ok, later, later)
	if _, hit := d.Get(hashN(2)); hit {
		t.Fatal("blob changed on disk served without a check")
	}
}

// TestMaxBlobBytesCoversLargestResult builds the largest Result a
// config within the serve tier's 1 MiB cap can produce: every number at
// its longest encoding, as many apps as the cap holds (the shortest app
// is `{"spec":{},"threads":1},`, 24 bytes), or one app whose name fills
// the cap with characters JSON escapes six-fold. Both must fit.
func TestMaxBlobBytesCoversLargestResult(t *testing.T) {
	const configCap = 1 << 20
	spec, _ := workload.ByName("gups")
	var fixed []byte
	for _, org := range []system.Org{system.Private, system.MonolithicMesh, system.DistributedMesh, system.Nocstar} {
		cfg := system.Config{Org: org, Cores: 4, InstrPerThread: 500, Seed: 1, PrefetchDegree: 1,
			Storm: &system.StormConfig{ContextSwitchInterval: 5000, PromoteDemoteInterval: 5000, Pages: 1024}}
		cfg.Apps = []system.App{{Spec: spec, Threads: 4, HammerSlice: system.HammerNone}}
		res, err := system.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Apps = nil
		maxOut(reflect.ValueOf(&res).Elem())
		if b, _ := json.Marshal(res); len(b) > len(fixed) {
			fixed = b
		}
	}
	app := system.AppResult{}
	maxOut(reflect.ValueOf(&app).Elem())
	appBytes, _ := json.Marshal(app)

	manyApps := len(fixed) + (configCap/24)*(len(appBytes)+1)
	app.Name = strings.Repeat("<", configCap)
	longName, _ := json.Marshal(app)
	oneName := len(fixed) + len(longName)
	t.Logf("fixed part %d B; %d minimal apps %d B; one %d-byte name %d B; cap %d B",
		len(fixed), configCap/24, manyApps, configCap, oneName, maxBlobBytes)
	if manyApps > maxBlobBytes || oneName > maxBlobBytes {
		t.Fatalf("largest Result (%d or %d bytes) exceeds maxBlobBytes %d", manyApps, oneName, maxBlobBytes)
	}
}

// maxOut sets every number reachable from v to its longest JSON form.
func maxOut(v reflect.Value) {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(math.MaxUint64 >> (64 - v.Type().Bits()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(math.MinInt64 >> (64 - v.Type().Bits()))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(-2.2250738585072014e-308)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				maxOut(v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			maxOut(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			maxOut(v.Elem())
		}
	}
}

// BenchmarkLeaseCycle is the lease cost of one cold run: claim a hash
// no one holds, renew once, release.
func BenchmarkLeaseCycle(b *testing.B) {
	d, err := OpenDir(b.TempDir(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	hash := hashN(1)
	for i := 0; i < b.N; i++ {
		l, err := d.Claim(hash)
		if err != nil {
			b.Fatal(err)
		}
		d.Renew()
		l.Release()
	}
}

// BenchmarkFollowerPoll is one poll of a replica waiting on another's
// lease, with eight leases live: read the missing blob, then fail to
// claim the hash.
func BenchmarkFollowerPoll(b *testing.B) {
	dir := b.TempDir()
	holder, _ := OpenDir(dir, 0, 0)
	for i := 0; i < 8; i++ {
		if _, err := holder.Claim(hashN(i)); err != nil {
			b.Fatal(err)
		}
	}
	d, _ := OpenDir(dir, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Get(hashN(0)); ok {
			b.Fatal("blob present")
		}
		if _, err := d.Claim(hashN(0)); !errors.Is(err, ErrLeased) {
			b.Fatal(err)
		}
	}
}
