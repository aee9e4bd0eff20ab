package store

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nocstar/internal/system"
	"nocstar/internal/workload"
)

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
