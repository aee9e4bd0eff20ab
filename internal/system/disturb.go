package system

import (
	"nocstar/internal/check"
	"nocstar/internal/engine"
	"nocstar/internal/tlb"
	"nocstar/internal/vm"
	"nocstar/internal/workload"
)

// This file implements the virtual-memory disturbance machinery: steady
// shootdown traffic (Fig. 16 right), and the Section V TLB-storm
// microbenchmark — rapid context switches (full shared-TLB flushes on
// x86) interleaved with superpage promotions/demotions whose 512-entry
// invalidation bursts all target a single TLB slice.

// storm is the storm microbenchmark's OS-side state.
type storm struct {
	as       *vm.AddressSpace
	base     vm.VirtAddr
	regions  uint64 // 2 MB regions cycled through
	next     uint64
	promoted []bool
}

// startDisturbances arms the shootdown generator and/or the storm co-run.
func (s *System) startDisturbances() {
	if s.cfg.ShootdownInterval > 0 {
		s.eng.ScheduleAct(engine.Cycle(s.cfg.ShootdownInterval), s, opShootdownTick, nil)
	}
	if s.cfg.Storm != nil {
		st := &storm{
			as:   vm.NewAddressSpace(vm.ContextID(len(s.apps) + 1)),
			base: 0x7000_0000_0000,
		}
		st.regions = s.cfg.Storm.Pages / 512
		if st.regions == 0 {
			st.regions = 1
		}
		st.promoted = make([]bool, st.regions)
		if s.cfg.Storm.PromoteDemoteInterval > 0 {
			s.eng.ScheduleAct(engine.Cycle(s.cfg.Storm.PromoteDemoteInterval), s, opStormPromote, st)
		}
		if s.cfg.Storm.ContextSwitchInterval > 0 {
			s.eng.ScheduleAct(engine.Cycle(s.cfg.Storm.ContextSwitchInterval), s, opStormCtxSwitch, nil)
		}
	}
}

// shootdownTick remaps one random hot page of a random app, broadcasting
// the invalidation, then re-arms while any thread remains live.
func (s *System) shootdownTick() {
	if s.threadsLive == 0 {
		return
	}
	a := s.apps[s.rng.Intn(len(s.apps))]
	reg := a.regions[0] // remap in the shared region: every core caches it
	idx := s.rng.Uint64n(reg.Pages)
	va := reg.Base + vm.VirtAddr(workload.PageSlot(idx, reg.Pages)*vm.Page4K.Bytes())
	s.ensureMapped(a, va) // the OS can remap a not-yet-touched page too
	_, size, ok := a.as.Translate(va)
	if ok {
		s.deliverInvalidations([]vm.Invalidation{
			{Ctx: a.as.Ctx, VPN: va.VPN(size), Size: size},
		})
	}
	s.eng.ScheduleAct(engine.Cycle(s.cfg.ShootdownInterval), s, opShootdownTick, nil)
}

// stormPromoteDemote performs the microbenchmark's next promote or demote
// on its region ring: "allocate 4KB pages, promote them to 2MB
// superpages, and then break them into 4KB pages again".
func (s *System) stormPromoteDemote(st *storm) {
	if s.threadsLive == 0 {
		return
	}
	idx := st.next % st.regions
	st.next++
	base := st.base + vm.VirtAddr(idx*vm.Page2M.Bytes())
	var invs []vm.Invalidation
	if !st.promoted[idx] {
		for i := uint64(0); i < 512; i++ {
			st.as.EnsureMapped(base+vm.VirtAddr(i*vm.Page4K.Bytes()), vm.Page4K)
		}
		if got, err := st.as.Promote2M(base); err == nil {
			invs = got
			st.promoted[idx] = true
		}
	} else {
		if got, err := st.as.Demote2M(base); err == nil {
			invs = got
			st.promoted[idx] = false
		}
	}
	horizon := s.deliverInvalidations(invs)
	// Shootdowns are synchronous: the storm process waits for the burst
	// to drain before its next promote/demote, so congestion is bounded
	// (and painful) rather than divergent.
	next := engine.Cycle(s.cfg.Storm.PromoteDemoteInterval)
	if wait := horizon - s.eng.Now(); wait > next {
		next = wait + engine.Cycle(s.cfg.Storm.PromoteDemoteInterval)/4
	}
	s.eng.ScheduleAct(next, s, opStormPromote, st)
}

// stormContextSwitch models an x86 context switch under the storm: all
// shared TLB contents are flushed, as are L1 TLBs and page-walk caches.
func (s *System) stormContextSwitch() {
	if s.threadsLive == 0 {
		return
	}
	if s.check != nil {
		s.check.FlushedAll()
	}
	for _, c := range s.cores {
		c.l1.Flush()
		c.walker.InvalidatePWC()
		if c.privL2 != nil {
			// The private L2 TLB's port performs the flush too: the
			// private baseline does not get context switches for free
			// while the shared organizations pay theirs below.
			c.privL2.Flush()
			s.chargePrivPort(c, 4)
		}
	}
	if s.mono != nil {
		s.mono.Flush()
		for b := range s.bankPortFree {
			s.chargeBankPort(b, 4)
		}
	}
	for i, sl := range s.slices {
		sl.Flush()
		s.chargeSlicePort(i, 4)
	}
	s.eng.ScheduleAct(engine.Cycle(s.cfg.Storm.ContextSwitchInterval), s, opStormCtxSwitch, nil)
}

// deliverInvalidations executes one shootdown. The invalidations are
// delivered as bursts (tlb.Burst): each maximal run that shares a
// context, a page size and one 512-page window — a superpage promotion's
// 512 base pages of one 2 MB region, or a single invalidation — is one
// burst. For each burst, every core's IPI handler invalidates its L1
// TLBs in one burst operation per array and clears its page-walk cache
// once; in the private organization the core's private L2 TLB applies
// the burst too. The shared structures are then reached per
// invalidation: messages are relayed to the owning monolithic bank or
// home slice either directly from every core (InvLeaders == 0) or via
// the configured invalidation leaders (Section III-G), and the checker
// records and verifies each invalidation. Message traffic is charged to
// the structure ports so it contends with demand lookups. Charges to the
// same structure (a promotion's 512 base-page entries of one home slice)
// coalesce into at most a full set-scrub of that structure, the way
// range invalidations work in hardware — so a small slice absorbs a
// burst far faster than a monolithic bank.
// It returns the latest cycle any charged port stays busy through.
func (s *System) deliverInvalidations(invs []vm.Invalidation) engine.Cycle {
	if len(invs) == 0 {
		return s.eng.Now()
	}
	s.m.invLat.Observe(uint64(len(invs)))

	// How many relayed messages reach the shared structure per
	// invalidation, and the relay serialization at leader cores.
	senders := s.cfg.Cores
	if s.cfg.InvLeaders > 0 && s.cfg.InvLeaders < s.cfg.Cores {
		senders = s.cfg.InvLeaders
		group := (s.cfg.Cores + senders - 1) / senders
		for l := 0; l < s.cfg.Cores; l += group {
			s.chargeSlicePortIfAny(l, group)
		}
	}

	privCharges := 0
	for len(invs) > 0 {
		var b tlb.Burst
		n := 0
		for n < len(invs) && b.Add(invs[n]) {
			n++
		}
		for _, c := range s.cores {
			c.l1.InvalidateBurst(&b)
			c.walker.InvalidatePWC()
			if c.privL2 != nil {
				c.privL2.InvalidateBurst(&b)
			}
		}
		for _, inv := range invs[:n] {
			if s.check != nil {
				s.check.Invalidated(inv)
			}
			switch {
			case s.mono != nil:
				s.mono.Apply(inv)
				if inv.FullFlush {
					// The flush scrubs every bank's share of the array,
					// so every bank's port is busy — mirroring the
					// sliced branch below, which charges every slice.
					for bank := range s.bankCharges {
						s.bankCharges[bank]++
					}
					s.m.shootdowns.Add(uint64(s.cfg.Banks))
					continue
				}
				bank := s.bankFor(vm.VirtAddr(inv.VPN << inv.Size.Shift()))
				s.bankCharges[bank] += senders
				s.m.shootdowns.Add(uint64(senders))
				s.checkScrubbed(inv, -1, true)
			case s.slices != nil:
				if inv.FullFlush {
					for i, sl := range s.slices {
						sl.Apply(inv)
						s.sliceCharges[i]++
					}
					s.m.shootdowns.Add(uint64(len(s.slices)))
					continue
				}
				home := s.homeSlice(vm.VirtAddr(inv.VPN << inv.Size.Shift()))
				s.slices[home].Apply(inv)
				s.sliceCharges[home] += senders
				s.m.shootdowns.Add(uint64(senders))
				s.checkScrubbed(inv, home, false)
			default:
				// Private org: every core's private L2 TLB performed
				// the invalidation lookup above, occupying its port —
				// IPI shootdowns are not free on the baseline either.
				privCharges++
				s.m.shootdowns.Inc()
				s.checkScrubbed(inv, -1, false)
			}
		}
		invs = invs[n:]
	}

	// Apply coalesced charges: a burst costs at most one scrub of the
	// target structure's sets plus the message delivery itself.
	horizon := s.eng.Now()
	for slice, n := range s.sliceCharges {
		if n == 0 {
			continue
		}
		s.sliceCharges[slice] = 0
		if cap := s.slices[slice].Sets() + senders; n > cap {
			n = cap
		}
		s.chargeSlicePort(slice, n)
		if s.slicePortFree[slice] > horizon {
			horizon = s.slicePortFree[slice]
		}
	}
	for bank, n := range s.bankCharges {
		if n == 0 {
			continue
		}
		s.bankCharges[bank] = 0
		if cap := s.mono.Sets()/s.cfg.Banks + senders; n > cap {
			n = cap
		}
		s.chargeBankPort(bank, n)
		if s.bankPortFree[bank] > horizon {
			horizon = s.bankPortFree[bank]
		}
	}
	if privCharges > 0 {
		// The same scrub coalescing applies to each private L2 TLB.
		n := privCharges
		if cap := s.cores[0].privL2.Sets() + 1; n > cap {
			n = cap
		}
		for _, c := range s.cores {
			s.chargePrivPort(c, n)
			if c.privPortFree > horizon {
				horizon = c.privPortFree
			}
		}
	}
	return horizon
}

// checkScrubbed asserts (checker runs only) that after a targeted
// invalidation no L1 TLB — nor the invalidation's home structure —
// still serves the scrubbed translation. slice names the home slice
// (-1: none); bank is true when the monolithic TLB was the target.
func (s *System) checkScrubbed(inv vm.Invalidation, slice int, bank bool) {
	if s.check == nil || inv.FullFlush {
		return
	}
	for _, c := range s.cores {
		if c.l1.Probe(inv.Ctx, inv.VPN, inv.Size) {
			s.check.Violatef("core %d L1 TLB still holds ctx=%d vpn=%#x size=%v after invalidation",
				c.id, inv.Ctx, inv.VPN, inv.Size)
		}
		if c.privL2 != nil && c.privL2.Probe(inv.Ctx, inv.VPN, inv.Size) {
			s.check.Violatef("core %d private L2 TLB still holds ctx=%d vpn=%#x size=%v after invalidation",
				c.id, inv.Ctx, inv.VPN, inv.Size)
		}
	}
	if bank && s.mono.Probe(inv.Ctx, inv.VPN, inv.Size) {
		s.check.Violatef("monolithic TLB still holds ctx=%d vpn=%#x size=%v after invalidation",
			inv.Ctx, inv.VPN, inv.Size)
	}
	if slice >= 0 && s.slices[slice].Probe(inv.Ctx, inv.VPN, inv.Size) {
		s.check.Violatef("slice %d still holds ctx=%d vpn=%#x size=%v after invalidation",
			slice, inv.Ctx, inv.VPN, inv.Size)
	}
}

// chargeSlicePort makes the slice's ports busy for n extra cycles.
func (s *System) chargeSlicePort(slice, n int) {
	now := s.eng.Now()
	if s.slicePortFree[slice] < now {
		s.slicePortFree[slice] = now
	}
	s.slicePortFree[slice] += engine.Cycle(n)
	if s.check != nil {
		s.check.Port(check.PortSlice, slice, s.slicePortFree[slice])
	}
}

// chargeSlicePortIfAny is chargeSlicePort guarded for organizations
// without slices (leader relay charges only exist there and for banks).
func (s *System) chargeSlicePortIfAny(slice, n int) {
	if s.slices == nil || slice >= len(s.slicePortFree) {
		return
	}
	s.chargeSlicePort(slice, n)
}

// chargeBankPort makes a monolithic bank's port busy for n extra cycles.
func (s *System) chargeBankPort(bank, n int) {
	now := s.eng.Now()
	if s.bankPortFree[bank] < now {
		s.bankPortFree[bank] = now
	}
	s.bankPortFree[bank] += engine.Cycle(n)
	if s.check != nil {
		s.check.Port(check.PortBank, bank, s.bankPortFree[bank])
	}
}

// chargePrivPort makes a core's private L2 TLB port busy for n extra
// cycles.
func (s *System) chargePrivPort(c *core, n int) {
	now := s.eng.Now()
	if c.privPortFree < now {
		c.privPortFree = now
	}
	c.privPortFree += engine.Cycle(n)
	if s.check != nil {
		s.check.Port(check.PortPriv, c.id, c.privPortFree)
	}
}
