package cache

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"nocstar/internal/vm"
)

// refCache is the cache as it was with one []line per set: the oracle
// the set-major layout must match step for step.
type refCache struct {
	cfg     Config
	sets    [][]line
	setMask uint64
	tick    uint64
}

func newRefCache(cfg Config) *refCache {
	sets := make([][]line, cfg.Sets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &refCache{cfg: cfg, sets: sets, setMask: uint64(cfg.Sets - 1)}
}

func (c *refCache) index(pa vm.PhysAddr) (uint64, uint64) {
	lineAddr := uint64(pa) / LineBytes
	return lineAddr & c.setMask, lineAddr
}

func (c *refCache) Lookup(pa vm.PhysAddr) bool {
	set, tag := c.index(pa)
	c.tick++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			return true
		}
	}
	return false
}

func (c *refCache) Insert(pa vm.PhysAddr) {
	set, tag := c.index(pa)
	c.tick++
	victim := 0
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			return
		}
		if !l.valid {
			victim = i
			break
		}
		if c.sets[set][i].lru < c.sets[set][victim].lru {
			victim = i
		}
	}
	c.sets[set][victim] = line{valid: true, tag: tag, lru: c.tick}
}

func (c *refCache) EvictRandomLines(n int) {
	for i := 0; i < n; i++ {
		set := (c.tick + uint64(i)) & c.setMask
		way := int(c.tick+uint64(i)) % c.cfg.Ways
		c.sets[set][way].valid = false
	}
	c.tick += uint64(n)
}

// refHierarchy is Hierarchy's Access and Pollute over refCaches.
type refHierarchy struct {
	levels     []*refCache
	memLatency int
}

func (h *refHierarchy) Access(pa vm.PhysAddr) (int, int) {
	for i, c := range h.levels {
		if c.Lookup(pa) {
			for j := 0; j < i; j++ {
				h.levels[j].Insert(pa)
			}
			return c.cfg.HitLatency, i
		}
	}
	for _, c := range h.levels {
		c.Insert(pa)
	}
	return h.memLatency, len(h.levels)
}

func (h *refHierarchy) Pollute(lines int) {
	for i, c := range h.levels {
		if i >= 2 {
			break
		}
		c.EvictRandomLines(lines)
	}
}

// refGeometries are the outer levels the comparison runs over: the
// chip's LLC and small shapes whose edges a large cache never reaches.
var refGeometries = []Config{
	LLCConfig(),
	{Name: "1set", Sets: 1, Ways: 4, HitLatency: 30},
	{Name: "1way", Sets: 4, Ways: 1, HitLatency: 30},
	{Name: "8x8", Sets: 8, Ways: 8, HitLatency: 30},
}

const (
	opLookup = iota
	opInsert
	opEvict
	opAccess
	opPollute
	numOps
)

// refOp is one step: a direct Lookup, Insert or EvictRandomLines on
// one level, or an Access or Pollute through the hierarchy.
type refOp struct {
	kind  int
	level int
	addr  vm.PhysAddr
	n     int
}

// decodeOp turns four selector bytes into a step. Addresses fall on a
// few sets of the outer level, 3*Ways lines each, so sets fill, evict
// and refill; the low bits pick a byte within the line.
func decodeOp(cfg Config, b [4]byte) refOp {
	sel := int(binary.LittleEndian.Uint16(b[2:]))
	set := sel % min(cfg.Sets, 4)
	k := (sel / 4) % (3 * cfg.Ways)
	return refOp{
		kind:  int(b[0]) % numOps,
		level: int(b[0]>>4) & 1,
		addr:  vm.PhysAddr(uint64(set+k*cfg.Sets)*LineBytes + uint64(b[1]%LineBytes)),
		n:     int(b[1]) % (2 * cfg.Ways),
	}
}

// checkAgainstReference runs ops on the walker-shaped hierarchy
// [8-set L2, cfg] and on the oracle, failing at the first step whose
// hit, miss, latency or serving level differs. Afterwards every address
// the steps inserted must probe the same at both levels, and the lines
// and clocks must be equal.
func checkAgainstReference(t testing.TB, cfg Config, ops []refOp) {
	t.Helper()
	l2 := Config{Name: "L2", Sets: 8, Ways: 8, HitLatency: 12}
	h := NewHierarchyFromLevels(200, New(l2), New(cfg))
	ref := &refHierarchy{memLatency: 200, levels: []*refCache{newRefCache(l2), newRefCache(cfg)}}
	var inserted []vm.PhysAddr
	for step, op := range ops {
		c, rc := h.levels[op.level], ref.levels[op.level]
		switch op.kind {
		case opLookup:
			if got, want := c.Lookup(op.addr), rc.Lookup(op.addr); got != want {
				t.Fatalf("%s step %d: level %d Lookup(%#x) = %v, reference %v", cfg.Name, step, op.level, op.addr, got, want)
			}
		case opInsert:
			c.Insert(op.addr)
			rc.Insert(op.addr)
			inserted = append(inserted, op.addr)
		case opEvict:
			c.EvictRandomLines(op.n)
			rc.EvictRandomLines(op.n)
		case opAccess:
			lat, lvl := h.Access(op.addr)
			wlat, wlvl := ref.Access(op.addr)
			if lat != wlat || lvl != wlvl {
				t.Fatalf("%s step %d: Access(%#x) = %d cycles from level %d, reference %d from %d",
					cfg.Name, step, op.addr, lat, lvl, wlat, wlvl)
			}
			inserted = append(inserted, op.addr)
		case opPollute:
			h.Pollute(op.n)
			ref.Pollute(op.n)
		}
	}
	for _, pa := range inserted {
		for lvl, c := range h.levels {
			if got, want := c.Lookup(pa), ref.levels[lvl].Lookup(pa); got != want {
				t.Fatalf("%s: after %d steps level %d probe of %#x = %v, reference %v", cfg.Name, len(ops), lvl, pa, got, want)
			}
		}
	}
	for lvl, c := range h.levels {
		rc := ref.levels[lvl]
		if c.tick != rc.tick {
			t.Fatalf("%s: level %d tick %d, reference %d", cfg.Name, lvl, c.tick, rc.tick)
		}
		for s, ways := range rc.sets {
			for w, l := range ways {
				if got := c.lines[s*rc.cfg.Ways+w]; got != l {
					t.Fatalf("%s: level %d set %d way %d = %+v, reference %+v", cfg.Name, lvl, s, w, got, l)
				}
			}
		}
	}
}

// TestCacheMatchesReference drives seeded random step sequences through
// every geometry and checks them against the per-set oracle.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range refGeometries {
		rng := rand.New(rand.NewSource(1))
		for seq := 0; seq < 20; seq++ {
			ops := make([]refOp, 500)
			for i := range ops {
				var b [4]byte
				rng.Read(b[:])
				ops[i] = decodeOp(cfg, b)
			}
			checkAgainstReference(t, cfg, ops)
		}
	}
}

// FuzzCacheMatchesReference: the first byte picks the geometry, then
// every four bytes are one step.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 3, 0, 0, 0, 3, 0, 0, 2, 7, 0, 0, 3, 3, 0, 0})
	f.Add([]byte{2, 1, 0, 4, 0, 3, 0, 4, 0, 4, 1, 0, 0, 0, 0, 4, 0})
	f.Add([]byte{3, 3, 0, 1, 0, 3, 9, 5, 0, 19, 0, 1, 0, 4, 5, 0, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := refGeometries[int(data[0])%len(refGeometries)]
		var ops []refOp
		for rest := data[1:]; len(rest) >= 4 && len(ops) < 1000; rest = rest[4:] {
			ops = append(ops, decodeOp(cfg, [4]byte(rest[:4])))
		}
		checkAgainstReference(t, cfg, ops)
	})
}
