package system

import (
	"slices"
	"testing"

	"nocstar/internal/check"
	"nocstar/internal/engine"
	"nocstar/internal/tlb"
	"nocstar/internal/vm"
)

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
	for _, p := range s.ports {
		if p.free != 4 {
			t.Fatalf("core %d private port free = %d after storm context switch, want 4",
				p.idx, p.free)
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
	for _, p := range m.ports {
		if p.free != 4 {
			t.Fatalf("bank %d port free = %d after storm context switch, want 4", p.idx, p.free)
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
			return s.sharedPort(nil, vm.VirtAddr(vpn<<vm.Page4K.Shift())).tlb
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
			if org == Private {
				priv := s.ports[c.id].tlb
				fill(func(ctx vm.ContextID, vpn uint64, size vm.PageSize) { priv.Insert(ctx, vpn, size, vpn) })
			}
		}
		if org != Private {
			fill(func(ctx vm.ContextID, vpn uint64, size vm.PageSize) { shared(vpn).Insert(ctx, vpn, size, vpn) })
		}
		// The arrays started empty, so what fill inserted is all an L1
		// holds: held4K is its 4K array's occupancy, counted by Probe
		// because the group keeps its arrays to itself.
		held4K := func(g *tlb.L1Group) int {
			n := 0
			for _, vpn := range inside {
				if g.Probe(ctx, vpn, vm.Page4K) {
					n++
				}
			}
			for _, k := range keep {
				if k.size == vm.Page4K && g.Probe(k.ctx, k.vpn, k.size) {
					n++
				}
			}
			return n
		}
		sharedHeld := func() int {
			n := 0
			for _, a := range s.arrays {
				n += a.Occupancy()
			}
			return n
		}
		l1Before := make([]int, len(s.cores))
		privBefore := make([]int, len(s.cores))
		for _, c := range s.cores {
			l1Before[c.id] = held4K(c.l1)
			if org == Private {
				privBefore[c.id] = s.ports[c.id].tlb.Occupancy()
			}
		}
		sharedBefore := sharedHeld()

		s.deliverInvalidations(invs)

		for _, c := range s.cores {
			arrays := map[string]interface {
				Probe(vm.ContextID, uint64, vm.PageSize) bool
			}{"L1": c.l1}
			if org == Private {
				arrays["private L2"] = s.ports[c.id].tlb
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
			if n := l1Before[c.id] - held4K(c.l1); n != len(inside) {
				t.Errorf("%v: core %d L1 4K array lost %d entries, want %d", org, c.id, n, len(inside))
			}
			if org == Private {
				if n := privBefore[c.id] - s.ports[c.id].tlb.Occupancy(); n != len(inside) {
					t.Errorf("%v: core %d private L2 lost %d entries, want %d", org, c.id, n, len(inside))
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
			if n := sharedBefore - sharedHeld(); n != len(inside) {
				t.Errorf("%v: shared TLB lost %d entries, want %d", org, n, len(inside))
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

// TestShootdownPortChargesPinned pins the coalesced shootdown charge,
// captured before private L2 TLBs, monolithic banks and slices became
// one port table: on 16 cores, each port's free horizon, the horizon
// each delivery returns and the vm.shootdowns count after one 512-page
// promotion burst and then one single-page invalidation at cycle 0.
// Every port's charge is capped at its share of its array's sets plus
// one message per sender; a private L2 TLB hears only its own core.
func TestShootdownPortChargesPinned(t *testing.T) {
	private := make([]engine.Cycle, 16)
	for i := range private {
		private[i] = 130
	}
	cases := []struct {
		org        Org
		leaders    int
		burst, one engine.Cycle // returned horizons
		shootdowns uint64
		ports      []engine.Cycle
	}{
		{Private, 0, 129, 130, 513, private},
		{Private, 2, 129, 130, 513, private},
		{MonolithicMesh, 0, 528, 16, 8208, []engine.Cycle{0, 0, 16, 528}},
		{MonolithicMesh, 2, 514, 2, 1026, []engine.Cycle{0, 0, 2, 514}},
		{DistributedMesh, 0, 144, 16, 8208, []engine.Cycle{0, 0, 0, 0, 0, 0, 0, 144, 0, 0, 16, 0, 0, 0, 0, 0}},
		{DistributedMesh, 2, 130, 2, 1026, []engine.Cycle{16, 0, 0, 0, 0, 0, 0, 130, 16, 0, 2, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		cfg := smallConfig(tc.org)
		cfg.Cores = 16
		cfg.Apps[0].Threads = 16
		cfg.InvLeaders = tc.leaders
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		burst := s.deliverInvalidations(promoteBurst(t, vm.ContextID(len(s.apps)+1), 0x7000_0000_0000))
		va := vm.VirtAddr(0x100_0000_0000)
		one := s.deliverInvalidations([]vm.Invalidation{{Ctx: 1, VPN: va.VPN(vm.Page4K), Size: vm.Page4K}})
		ports := make([]engine.Cycle, len(s.ports))
		for i, p := range s.ports {
			ports[i] = p.free
		}
		if burst != tc.burst || one != tc.one || s.m.shootdowns.Value() != tc.shootdowns || !slices.Equal(ports, tc.ports) {
			t.Errorf("%v, %d leaders: horizons %d, %d, %d shootdowns, ports %v; want %d, %d, %d, %v",
				tc.org, tc.leaders, burst, one, s.m.shootdowns.Value(), ports,
				tc.burst, tc.one, tc.shootdowns, tc.ports)
		}
	}
}
