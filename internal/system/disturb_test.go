package system

import (
	"testing"

	"nocstar/internal/check"
	"nocstar/internal/tlb"
	"nocstar/internal/vm"
)

// TestMonoFullFlushChargesAllBanks is the regression test for the
// shootdown cost-model bug where a FullFlush on the monolithic
// organization charged only bank 0's port: the flush scrubs every bank's
// share of the array, so every bank must be busy, exactly like the
// sliced organizations charge every slice.
func TestMonoFullFlushChargesAllBanks(t *testing.T) {
	s, err := New(smallConfig(MonolithicMesh))
	if err != nil {
		t.Fatal(err)
	}
	flush := []vm.Invalidation{{Ctx: 1, FullFlush: true}}
	monoHorizon := s.deliverInvalidations(flush)
	for b, free := range s.bankPortFree {
		if free != 1 {
			t.Fatalf("bank %d port free = %d after full flush, want 1 (every bank charged once)",
				b, free)
		}
	}
	// The monolithic horizon now matches the sliced organizations': one
	// coalesced scrub per bank/slice, regardless of the core count that
	// used to be charged to bank 0 alone.
	d, err := New(smallConfig(DistributedMesh))
	if err != nil {
		t.Fatal(err)
	}
	if slicedHorizon := d.deliverInvalidations(flush); monoHorizon != slicedHorizon {
		t.Fatalf("full-flush horizons diverge: monolithic %d vs sliced %d",
			monoHorizon, slicedHorizon)
	}
}

// TestStormContextSwitchChargesPrivatePorts is the regression test for
// the storm cost-model bug where a context switch flushed private L2
// TLBs for free while charging the shared organizations' banks and
// slices 4 cycles each.
func TestStormContextSwitchChargesPrivatePorts(t *testing.T) {
	cfg := smallConfig(Private)
	cfg.Storm = &StormConfig{ContextSwitchInterval: 1000, PromoteDemoteInterval: 1000, Pages: 512}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.stormContextSwitch()
	for _, c := range s.cores {
		if c.privPortFree != 4 {
			t.Fatalf("core %d private port free = %d after storm context switch, want 4",
				c.id, c.privPortFree)
		}
	}
	// Shared organizations keep paying the same flush cost.
	mcfg := smallConfig(MonolithicMesh)
	mcfg.Storm = cfg.Storm
	m, err := New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	m.stormContextSwitch()
	for b, free := range m.bankPortFree {
		if free != 4 {
			t.Fatalf("bank %d port free = %d after storm context switch, want 4", b, free)
		}
	}
}

// promoteBurst maps every 4 KB page of the 2 MB region at base in a
// fresh address space of ctx and promotes it, returning the 512-page
// shootdown burst the storm delivers.
func promoteBurst(t testing.TB, ctx vm.ContextID, base vm.VirtAddr) []vm.Invalidation {
	t.Helper()
	as := vm.NewAddressSpace(ctx)
	for i := uint64(0); i < 512; i++ {
		as.EnsureMapped(base+vm.VirtAddr(i*vm.Page4K.Bytes()), vm.Page4K)
	}
	invs, err := as.Promote2M(base)
	if err != nil || len(invs) != 512 {
		t.Fatalf("Promote2M: %d invalidations, err %v", len(invs), err)
	}
	return invs
}

// TestBurstScrubsPopulatedArrays pins what the shipped storm workloads
// cannot: their burst context is never run by a thread, so no L1 or
// private L2 TLB ever holds a burst page and a removal bug would leave
// every digest unchanged. Here every core's arrays (and the shared
// structure) hold burst-context pages inside the promoted region and
// just outside it, plus same-VPN translations of another context and the
// region's 2 MB translation; the burst must remove exactly the in-region
// 4 KB pages, under a checker that stays clean.
func TestBurstScrubsPopulatedArrays(t *testing.T) {
	for _, org := range []Org{Private, MonolithicMesh, Nocstar} {
		cfg := smallConfig(org)
		cfg.Check = check.New()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := vm.ContextID(len(s.apps) + 1) // the storm's context
		base := vm.VirtAddr(0x7000_0000_0000)
		invs := promoteBurst(t, ctx, base)
		first := base.VPN(vm.Page4K)
		inside := []uint64{first, first + 1, first + 2, first + 255, first + 510, first + 511}
		outside := []uint64{first - 2, first - 1, first + 512, first + 513}

		type kept struct {
			ctx  vm.ContextID
			vpn  uint64
			size vm.PageSize
		}
		keep := []kept{{ctx + 1, first + 1, vm.Page4K}, {ctx, base.VPN(vm.Page2M), vm.Page2M}}
		for _, vpn := range outside {
			keep = append(keep, kept{ctx, vpn, vm.Page4K})
		}
		shared := func(vpn uint64) *tlb.TLB {
			if s.mono != nil {
				return s.mono
			}
			return s.slices[s.homeSlice(vm.VirtAddr(vpn<<vm.Page4K.Shift()))]
		}
		fill := func(insert func(ctx vm.ContextID, vpn uint64, size vm.PageSize)) {
			for _, vpn := range inside {
				insert(ctx, vpn, vm.Page4K)
			}
			for _, k := range keep {
				insert(k.ctx, k.vpn, k.size)
			}
		}
		for _, c := range s.cores {
			fill(func(ctx vm.ContextID, vpn uint64, size vm.PageSize) { c.l1.Insert(ctx, vpn, size, vpn) })
			if c.privL2 != nil {
				fill(func(ctx vm.ContextID, vpn uint64, size vm.PageSize) { c.privL2.Insert(ctx, vpn, size, vpn) })
			}
		}
		if org != Private {
			fill(func(ctx vm.ContextID, vpn uint64, size vm.PageSize) { shared(vpn).Insert(ctx, vpn, size, vpn) })
		}

		s.deliverInvalidations(invs)

		for _, c := range s.cores {
			arrays := map[string]interface {
				Probe(vm.ContextID, uint64, vm.PageSize) bool
			}{"L1": c.l1}
			if c.privL2 != nil {
				arrays["private L2"] = c.privL2
			}
			for name, a := range arrays {
				for _, vpn := range inside {
					if a.Probe(ctx, vpn, vm.Page4K) {
						t.Errorf("%v: core %d %s still holds in-region vpn %#x", org, c.id, name, vpn)
					}
				}
				for _, k := range keep {
					if !a.Probe(k.ctx, k.vpn, k.size) {
						t.Errorf("%v: core %d %s lost %+v outside the burst", org, c.id, name, k)
					}
				}
			}
			s4k, s2m, s1g := c.l1.Stats()
			if s4k.Invalidated != uint64(len(inside)) || s2m.Invalidated != 0 || s1g.Invalidated != 0 {
				t.Errorf("%v: core %d L1 invalidated 4K/2M/1G = %d/%d/%d, want %d/0/0",
					org, c.id, s4k.Invalidated, s2m.Invalidated, s1g.Invalidated, len(inside))
			}
			if c.privL2 != nil {
				if n := c.privL2.Stats().Invalidated; n != uint64(len(inside)) {
					t.Errorf("%v: core %d private L2 invalidated %d, want %d", org, c.id, n, len(inside))
				}
			}
		}
		if org != Private {
			for _, vpn := range inside {
				if shared(vpn).Probe(ctx, vpn, vm.Page4K) {
					t.Errorf("%v: shared TLB still holds in-region vpn %#x", org, vpn)
				}
			}
			for _, k := range keep {
				if !shared(k.vpn).Probe(k.ctx, k.vpn, k.size) {
					t.Errorf("%v: shared TLB lost %+v outside the burst", org, k)
				}
			}
			if s.mono != nil {
				if n := s.mono.Stats().Invalidated; n != uint64(len(inside)) {
					t.Errorf("%v: monolithic TLB invalidated %d, want %d", org, n, len(inside))
				}
			}
		}
		if !cfg.Check.Ok() {
			t.Fatalf("%v: %v", org, cfg.Check.Err())
		}
		if st := cfg.Check.Stats(); st.Invalidations != uint64(len(invs)) {
			t.Fatalf("%v: checker recorded %d invalidations, want %d", org, st.Invalidations, len(invs))
		}
	}
}
