package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"nocstar/client"
	"nocstar/internal/system"
)

// BenchmarkSubmitCacheHit is the layer benchmark of the cache-hit path:
// client.Run against a server over a store directory, round-robin over
// 256 stored configs — more than the memory tier's old 128 entries, the
// replay pattern of a sweep. Each stored result is the real blob of a
// small run. ns/op is one hit's round trip over loopback, client
// included; allocs/op counts both ends.
func BenchmarkSubmitCacheHit(b *testing.B) {
	const configs = 256
	srv, err := New(Options{Workers: 1, StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(context.Background())
	}()
	c := client.New(ts.URL)

	cfgs := make([]system.Config, configs)
	var blob []byte
	for i := range cfgs {
		cfg, err := system.UnmarshalConfig([]byte(cfgWith(int64(i+1), 500)))
		if err != nil {
			b.Fatal(err)
		}
		if blob == nil {
			res, err := system.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if blob, err = json.Marshal(res); err != nil {
				b.Fatal(err)
			}
		}
		hash, err := cfg.CanonicalHash()
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.results.Put(hash, blob); err != nil {
			b.Fatal(err)
		}
		cfgs[i] = cfg
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.Run(ctx, cfgs[i%configs])
		if err != nil || !st.Cached || len(st.Result) != len(blob) {
			b.Fatalf("hit %d: %v cached=%v", i, err, st.Cached)
		}
	}
}
