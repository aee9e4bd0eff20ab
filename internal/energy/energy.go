// Package energy provides the event-based energy accounting behind the
// paper's Fig. 11(b) (per-message interconnect energy, split into link /
// switch / control / SRAM) and Fig. 14 right (percent of address
// translation energy saved versus private L2 TLBs).
//
// Per-event costs are anchored to the Fig. 9 place-and-route data via
// internal/sram, with first-order 28 nm constants for links, routers, and
// cache/DRAM accesses. The experiments consume only *relative* energy, so
// the anchoring preserves the published shapes: slices beat the monolithic
// SRAM, NOCSTAR's datapath beats a buffered router per hop, NOCSTAR's
// control costs slightly more than a distributed mesh's, and eliminated
// page walks dominate the end-to-end savings.
package energy

import "nocstar/internal/sram"

// Per-hop interconnect energies (pJ) for a ~70-bit translation message.
const (
	// LinkPJPerHop is the repeated-wire energy of one tile-to-tile hop,
	// identical for all designs (same wires).
	LinkPJPerHop = 0.8
	// RouterSwitchPJPerHop is a buffered mesh/SMART router traversal:
	// buffer write/read, VC allocation, crossbar.
	RouterSwitchPJPerHop = 1.5
	// NocstarSwitchPJPerHop is the latchless mux switch of Fig. 7(c).
	NocstarSwitchPJPerHop = 0.3
	// MeshControlPJPerHop is per-router route computation/arbitration.
	MeshControlPJPerHop = 0.2
	// NocstarControlPJPerHop is the request wire to a link arbiter, the
	// arbitration, and the grant wire back (Fig. 8). The paper notes this
	// "shows up as a slightly higher control cost than Distributed"
	// because all arbiters in the path arbitrate simultaneously.
	NocstarControlPJPerHop = 0.45
)

// CacheAccessPJ is the dynamic energy of a lookup at each level of the
// data cache hierarchy (L1, L2, LLC, DRAM). The orders-of-magnitude gap
// between TLB lookups and LLC/DRAM page-walk references is the effect the
// paper cites from [Karakostas et al., HPCA 2016]: "the energy spent
// accessing hardware caches for page table walks is orders of magnitude
// more expensive than the energy spent on TLB accesses". The LLC and
// DRAM values are McPAT-class numbers for an 8 MB LLC and a DDR access.
var CacheAccessPJ = [4]float64{10, 25, 600, 4000}

// L1TLBLookupPJ is one lookup across the three small L1 TLB arrays.
const L1TLBLookupPJ = 1.5

// MessageEnergy is one Fig. 11(b) bar: the energy of a single TLB request
// message traversing the interconnect and looking up its destination
// array.
type MessageEnergy struct {
	Link    float64
	Switch  float64
	Control float64
	SRAM    float64
}

// Total sums the components.
func (m MessageEnergy) Total() float64 { return m.Link + m.Switch + m.Control + m.SRAM }

// MeshMessage returns the energy of a message crossing hops mesh hops to
// an array of entries: a distributed slice, or the whole monolithic
// shared TLB (per-bank lookup energy is dominated by the huge array).
func MeshMessage(hops, entries int) MessageEnergy {
	h := float64(hops)
	return MessageEnergy{
		Link:    LinkPJPerHop * h,
		Switch:  RouterSwitchPJPerHop * h,
		Control: MeshControlPJPerHop * h,
		SRAM:    sram.AccessEnergyPJ(entries),
	}
}

// NocstarMessage returns the energy of a message crossing hops latchless
// switches to a NOCSTAR slice of sliceEntries.
func NocstarMessage(hops, sliceEntries int) MessageEnergy {
	h := float64(hops)
	return MessageEnergy{
		Link:    LinkPJPerHop * h,
		Switch:  NocstarSwitchPJPerHop * h,
		Control: NocstarControlPJPerHop * h,
		SRAM:    sram.AccessEnergyPJ(sliceEntries),
	}
}

// Meter accumulates the address-translation energy of one simulated run.
type Meter struct {
	L1TLBPJ   float64
	L2TLBPJ   float64
	NetworkPJ float64
	WalkPJ    float64
	StaticPJ  float64
}

// AddL1Lookups charges n L1 TLB lookups.
func (m *Meter) AddL1Lookups(n uint64) {
	m.L1TLBPJ += float64(n) * L1TLBLookupPJ
}

// AddL2Lookups charges n lookups in an L2 TLB array of the given size.
func (m *Meter) AddL2Lookups(n uint64, entries int) {
	m.L2TLBPJ += float64(n) * sram.AccessEnergyPJ(entries)
}

// AddMessage charges one interconnect message (SRAM component excluded —
// lookups are charged via AddL2Lookups to avoid double counting).
func (m *Meter) AddMessage(e MessageEnergy) {
	m.NetworkPJ += e.Link + e.Switch + e.Control
}

// AddWalkRefs charges page-walk memory references by serving level
// (L1, L2, LLC, memory).
func (m *Meter) AddWalkRefs(byLevel [4]uint64) {
	for i, n := range byLevel {
		m.WalkPJ += float64(n) * CacheAccessPJ[i]
	}
}

// AddStatic charges leakage for a structure of totalTLBEntries over the
// run's cycle count at the 2 GHz design clock.
func (m *Meter) AddStatic(cycles uint64, totalTLBEntries int) {
	ns := float64(cycles) / sram.ClockGHz
	m.StaticPJ += sram.LeakagePowerMW(totalTLBEntries) * ns // 1 mW x 1 ns = 1 pJ
}

// TotalPJ sums every component.
func (m *Meter) TotalPJ() float64 {
	return m.L1TLBPJ + m.L2TLBPJ + m.NetworkPJ + m.WalkPJ + m.StaticPJ
}

// PercentSaved reports how much of baseline's translation energy the
// config avoids, as a percentage (positive = savings).
func PercentSaved(config, baseline *Meter) float64 {
	b := baseline.TotalPJ()
	if b == 0 {
		return 0
	}
	return 100 * (1 - config.TotalPJ()/b)
}
