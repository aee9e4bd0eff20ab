package energy

import (
	"testing"
	"testing/quick"
)

func TestFig11bOrdering(t *testing.T) {
	// At any hop count, per-message energy must order
	// NOCSTAR <= Distributed < Monolithic (Fig. 11b); at zero hops the
	// slice designs coincide (both are just one slice SRAM lookup).
	for _, hops := range []int{0, 1, 2, 4, 6, 8, 10, 12} {
		m := MeshMessage(hops, 32*1024).Total()
		d := MeshMessage(hops, 1024).Total()
		n := NocstarMessage(hops, 1024).Total()
		if !(n <= d && d < m) {
			t.Fatalf("hops %d: N=%v D=%v M=%v, want N<=D<M", hops, n, d, m)
		}
		if hops > 0 && n >= d {
			t.Fatalf("hops %d: NOCSTAR %v not strictly below distributed %v", hops, n, d)
		}
	}
}

func TestNocstarControlCostHigher(t *testing.T) {
	// The paper: NOCSTAR "has a more expensive control path" than the
	// distributed mesh, but a cheaper datapath switch.
	n := NocstarMessage(8, 1024)
	d := MeshMessage(8, 1024)
	if n.Control <= d.Control {
		t.Fatalf("NOCSTAR control %v not above distributed %v", n.Control, d.Control)
	}
	if n.Switch >= d.Switch {
		t.Fatalf("NOCSTAR switch %v not below distributed %v", n.Switch, d.Switch)
	}
	if n.Link != d.Link {
		t.Fatal("link energy should be identical (same wires)")
	}
}

func TestSRAMDominatesMonolithic(t *testing.T) {
	m := MeshMessage(4, 64*1024)
	if m.SRAM < m.Link+m.Switch+m.Control {
		t.Fatalf("monolithic SRAM %v should dominate network %v",
			m.SRAM, m.Link+m.Switch+m.Control)
	}
}

// Property: message energy is non-negative and monotonically
// non-decreasing in hop count for every design.
func TestEnergyMonotoneInHops(t *testing.T) {
	f := func(h uint8) bool {
		hops := int(h % 30)
		for _, fn := range []func(int, int) MessageEnergy{MeshMessage, NocstarMessage} {
			a, b := fn(hops, 1024).Total(), fn(hops+1, 1024).Total()
			if a < 0 || b < a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeterAccumulation(t *testing.T) {
	var m Meter
	m.AddL1Lookups(10)
	if m.L1TLBPJ != 10*L1TLBLookupPJ {
		t.Fatalf("L1 = %v", m.L1TLBPJ)
	}
	m.AddL2Lookups(5, 1024)
	if m.L2TLBPJ <= 0 {
		t.Fatal("L2 lookups not charged")
	}
	m.AddMessage(NocstarMessage(4, 1024))
	if m.NetworkPJ <= 0 {
		t.Fatal("message not charged")
	}
	// AddMessage must not double count SRAM.
	net := NocstarMessage(4, 1024)
	if m.NetworkPJ != net.Link+net.Switch+net.Control {
		t.Fatalf("network charge %v includes SRAM?", m.NetworkPJ)
	}
	m.AddWalkRefs([4]uint64{1, 1, 1, 1})
	wantWalk := CacheAccessPJ[0] + CacheAccessPJ[1] + CacheAccessPJ[2] + CacheAccessPJ[3]
	if m.WalkPJ != wantWalk {
		t.Fatalf("walk = %v, want %v", m.WalkPJ, wantWalk)
	}
	m.AddStatic(2000, 1024)
	if m.StaticPJ <= 0 {
		t.Fatal("static not charged")
	}
	if m.TotalPJ() != m.L1TLBPJ+m.L2TLBPJ+m.NetworkPJ+m.WalkPJ+m.StaticPJ {
		t.Fatal("TotalPJ != sum of components")
	}
}

func TestWalkEnergyDominates(t *testing.T) {
	// A DRAM page-walk reference must cost orders of magnitude more than
	// a TLB lookup — the premise of the paper's energy argument.
	var tlbOnly, walkHeavy Meter
	tlbOnly.AddL2Lookups(1, 1024)
	walkHeavy.AddWalkRefs([4]uint64{0, 0, 1, 1})
	if walkHeavy.TotalPJ() < 50*tlbOnly.TotalPJ() {
		t.Fatalf("walk %v vs TLB %v: gap too small", walkHeavy.TotalPJ(), tlbOnly.TotalPJ())
	}
}

func TestPercentSaved(t *testing.T) {
	var base, cfg Meter
	base.AddWalkRefs([4]uint64{0, 0, 10, 0})
	cfg.AddWalkRefs([4]uint64{0, 0, 5, 0})
	if got := PercentSaved(&cfg, &base); got != 50 {
		t.Fatalf("PercentSaved = %v, want 50", got)
	}
	var zero Meter
	if PercentSaved(&cfg, &zero) != 0 {
		t.Fatal("zero baseline should report 0")
	}
	// A costlier config yields negative savings.
	if PercentSaved(&base, &cfg) >= 0 {
		t.Fatal("negative savings expected")
	}
}

func TestStaticEnergyUnits(t *testing.T) {
	var m Meter
	// 2 GHz: 2000 cycles = 1000 ns; LeakagePowerMW(1024) mW x 1000 ns.
	m.AddStatic(2000, 1024)
	want := 1000.0 * 0.5 * 10.91 // ns * leakage share * Fig.9 mW
	if m.StaticPJ < want*0.99 || m.StaticPJ > want*1.01 {
		t.Fatalf("static = %v pJ, want ~%v", m.StaticPJ, want)
	}
}
