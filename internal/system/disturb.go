package system

import (
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
	_, size := s.ensureMapped(a, va) // the OS can remap a not-yet-touched page too
	s.deliverInvalidations([]vm.Invalidation{
		{Ctx: a.as.Ctx, VPN: va.VPN(size), Size: size},
	})
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
		st.as.EnsureBasePages(base)
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

// stormContextSwitch models an x86 context switch under the storm: every
// L2 TLB array is flushed, as are L1 TLBs and page-walk caches.
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
	}
	for _, t := range s.arrays {
		t.Flush()
	}
	// Every L2 port performs its share of the flush: the private baseline
	// does not get context switches for free while the shared
	// organizations pay theirs.
	for i := range s.ports {
		s.chargePort(&s.ports[i], 4)
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
// invalidation: messages are relayed to the port the owning app's
// inserts use (sharedPort: the monolithic bank, the home slice, or the
// app's hammered slice) either directly from every core
// (InvLeaders == 0) or via the configured invalidation leaders
// (Section III-G), and the checker records and verifies each
// invalidation. A private L2 TLB is a port whose only sender is its own
// core. Message traffic is charged to the ports so it contends with
// demand lookups. Charges to the same port (a promotion's 512 base-page
// entries of one home slice) coalesce into at most a full set-scrub of
// the port's share of its array plus one message per sender, the way
// range invalidations work in hardware — so a small slice absorbs a
// burst far faster than a monolithic bank.
// It returns the latest cycle any port charged by the invalidations
// stays busy through.
func (s *System) deliverInvalidations(invs []vm.Invalidation) engine.Cycle {
	if len(invs) == 0 {
		return s.eng.Now()
	}
	s.m.invLat.Observe(uint64(len(invs)))

	// How many relayed messages reach a port per invalidation, and the
	// relay serialization at leader cores, charged to the slice on the
	// leader's tile in the sliced organizations.
	private := s.cfg.Org == Private
	senders := s.cfg.Cores
	switch {
	case private:
		senders = 1
	case s.cfg.InvLeaders > 0 && s.cfg.InvLeaders < s.cfg.Cores:
		senders = s.cfg.InvLeaders
		group := (s.cfg.Cores + senders - 1) / senders
		if s.cfg.Org.sliced() {
			for l := 0; l < s.cfg.Cores; l += group {
				s.chargePort(&s.ports[l], group)
			}
		}
	}

	for len(invs) > 0 {
		var b tlb.Burst
		n := 0
		for n < len(invs) && b.Add(invs[n]) {
			n++
		}
		for _, c := range s.cores {
			c.l1.InvalidateBurst(&b)
			c.walker.InvalidatePWC()
		}
		if private {
			for i := range s.ports {
				s.ports[i].tlb.InvalidateBurst(&b)
				s.ports[i].charge += n * senders
			}
		}
		for _, inv := range invs[:n] {
			if s.check != nil {
				s.check.Invalidated(inv)
			}
			var home *l2port
			if !private {
				home = s.sharedPort(s.appOf(inv.Ctx), vm.VirtAddr(inv.VPN<<inv.Size.Shift()))
				home.tlb.Apply(inv)
				home.charge += senders
			}
			s.m.shootdowns.Add(uint64(senders))
			s.checkScrubbed(inv, home)
		}
		invs = invs[n:]
	}

	// Apply coalesced charges: a burst costs at most one scrub of the
	// port's sets plus the message delivery itself.
	horizon := s.eng.Now()
	for i := range s.ports {
		p := &s.ports[i]
		if p.charge == 0 {
			continue
		}
		s.chargePort(p, min(p.charge, s.perPort(p.tlb.Sets())+senders))
		p.charge = 0
		horizon = max(horizon, p.free)
	}
	return horizon
}

// checkScrubbed asserts (checker runs only) that after an invalidation
// no L1 TLB — nor the L2 array behind the invalidation's home port, or
// behind every port when home is nil (each private L2 TLB applied it) —
// still serves the scrubbed translation.
func (s *System) checkScrubbed(inv vm.Invalidation, home *l2port) {
	if s.check == nil {
		return
	}
	for _, c := range s.cores {
		if c.l1.Probe(inv.Ctx, inv.VPN, inv.Size) {
			s.check.Violatef("core %d L1 TLB still holds ctx=%d vpn=%#x size=%v after invalidation",
				c.id, inv.Ctx, inv.VPN, inv.Size)
		}
	}
	ports := s.ports
	if home != nil {
		ports = s.ports[home.idx : home.idx+1]
	}
	for _, p := range ports {
		if p.tlb.Probe(inv.Ctx, inv.VPN, inv.Size) {
			s.check.Violatef("L2 port %d still holds ctx=%d vpn=%#x size=%v after invalidation",
				p.idx, inv.Ctx, inv.VPN, inv.Size)
		}
	}
}

// chargePort makes p busy for n extra cycles from now on.
func (s *System) chargePort(p *l2port, n int) {
	if now := s.eng.Now(); p.free < now {
		p.free = now
	}
	p.free += engine.Cycle(n)
	if s.check != nil {
		s.check.Port(p.idx, p.free)
	}
}
