package check

import (
	"strings"
	"testing"

	"nocstar/internal/vm"
)

func TestEventOrder(t *testing.T) {
	c := New()
	c.event(5, 1)
	c.event(5, 2)
	c.event(7, 3)
	if !c.Ok() {
		t.Fatalf("monotone event stream flagged: %v", c.Err())
	}
	c.event(7, 3) // seq did not advance within the cycle
	if c.Ok() {
		t.Fatal("repeated (cycle, seq) not flagged")
	}

	c = New()
	c.event(5, 1)
	c.event(4, 2) // cycle decreased
	if c.Ok() {
		t.Fatal("decreasing event cycle not flagged")
	}
	if c.Stats().Events != 2 {
		t.Fatalf("Events = %d, want 2", c.Stats().Events)
	}
}

func TestPortHorizonMonotone(t *testing.T) {
	c := New()
	c.BindPorts(3)
	c.Port(0, 10)
	c.Port(0, 10) // unchanged horizon is fine
	c.Port(1, 4)
	c.Port(2, 9)
	if !c.Ok() {
		t.Fatalf("monotone horizons flagged: %v", c.Err())
	}
	c.Port(0, 9) // rewound past an already-charged horizon
	if c.Ok() {
		t.Fatal("rewound port horizon not flagged")
	}
	if !strings.Contains(c.Violations()[0].Msg, "port 0 ") {
		t.Fatalf("violation does not name the port: %v", c.Violations()[0])
	}

	c = New()
	c.BindPorts(1)
	c.Port(1, 1) // only port 0 bound
	if c.Ok() {
		t.Fatal("out-of-range port index not flagged")
	}
}

func TestServedOracle(t *testing.T) {
	as := vm.NewAddressSpace(1)
	va := vm.VirtAddr(0x1000)
	as.EnsureMapped(va, vm.Page4K)
	pa, _, _ := as.Translate(va)
	pfn := uint64(pa) >> vm.Page4K.Shift()
	vpn := va.VPN(vm.Page4K)

	c := New()
	c.Served(as, vpn, vm.Page4K, pfn)
	if !c.Ok() {
		t.Fatalf("correct translation flagged: %v", c.Err())
	}
	c.Served(as, vpn, vm.Page4K, pfn+1)
	if len(c.Violations()) != 1 {
		t.Fatal("wrong PFN not flagged")
	}
	c.Served(as, 0x999, vm.Page4K, 5)
	if len(c.Violations()) != 2 {
		t.Fatal("unmapped serve not flagged")
	}
	if c.Stats().Translations != 3 {
		t.Fatalf("Translations = %d, want 3", c.Stats().Translations)
	}

	// Size mismatch: the page table holds a 2M mapping, the TLB claims 4K.
	as2 := vm.NewAddressSpace(2)
	big := vm.VirtAddr(0x400000)
	as2.EnsureMapped(big, vm.Page2M)
	pa2, _, _ := as2.Translate(big)
	c = New()
	c.Served(as2, big.VPN(vm.Page4K), vm.Page4K, uint64(pa2)>>vm.Page4K.Shift())
	if c.Ok() || !strings.Contains(c.Violations()[0].Msg, "page table has 2M") {
		t.Fatalf("size mismatch not flagged: %v", c.Violations())
	}
}

func TestWalkResultOracle(t *testing.T) {
	as := vm.NewAddressSpace(3)
	va := vm.VirtAddr(0x7000)
	as.EnsureMapped(va, vm.Page4K)
	res, ok := as.PT.Walk(va)
	if !ok {
		t.Fatal("setup walk failed")
	}

	c := New()
	c.WalkResult(as, va, res)
	if !c.Ok() {
		t.Fatalf("correct walk flagged: %v", c.Err())
	}
	bad := res
	bad.PA += 0x1000
	c.WalkResult(as, va, bad)
	if len(c.Violations()) != 1 {
		t.Fatal("wrong walk PA not flagged")
	}
	c.WalkResult(as, 0x123456789000, res) // walker claims a mapping, table has none
	if len(c.Violations()) != 2 {
		t.Fatal("walk of unmapped va not flagged")
	}
}

func TestStaleServeDetection(t *testing.T) {
	as := vm.NewAddressSpace(4)
	va := vm.VirtAddr(0x5000)
	as.EnsureMapped(va, vm.Page4K)
	pa, _, _ := as.Translate(va)
	pfn := uint64(pa) >> vm.Page4K.Shift()
	vpn := va.VPN(vm.Page4K)
	serve := func(c *Checker) { c.Served(as, vpn, vm.Page4K, pfn) }

	c := New()
	c.Inserted(as.Ctx, vpn, vm.Page4K)
	serve(c)
	if !c.Ok() {
		t.Fatalf("fresh serve flagged: %v", c.Err())
	}

	// Targeted invalidation: the old entry becomes stale until re-inserted.
	c.Invalidated(vm.Invalidation{Ctx: as.Ctx, VPN: vpn, Size: vm.Page4K})
	serve(c)
	if n := len(c.Violations()); n != 1 {
		t.Fatalf("stale serve after invalidation: %d violations, want 1", n)
	}
	c.Inserted(as.Ctx, vpn, vm.Page4K)
	serve(c)
	if n := len(c.Violations()); n != 1 {
		t.Fatalf("re-inserted serve flagged: %d violations", n)
	}

	// Global flush (storm context switch) invalidates everything.
	c.FlushedAll()
	serve(c)
	if n := len(c.Violations()); n != 2 {
		t.Fatalf("stale serve after global flush: %d violations, want 2", n)
	}
	if c.Stats().Invalidations != 2 || c.Stats().Inserts != 2 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestCommitted(t *testing.T) {
	c := New()
	c.Committed(0, 500, 500)
	if !c.Ok() {
		t.Fatalf("matching commit flagged: %v", c.Err())
	}
	c.Committed(3, 499, 500)
	if c.Ok() || !strings.Contains(c.Violations()[0].Msg, "core 3") {
		t.Fatalf("short commit not flagged: %v", c.Violations())
	}
}

func TestViolationCapAndErr(t *testing.T) {
	c := New()
	if c.Err() != nil {
		t.Fatal("clean checker returned an error")
	}
	hooked := 0
	c.OnViolation = func(Violation) { hooked++ }
	for i := 0; i < maxViolations+10; i++ {
		c.Violatef("boom %d", i)
	}
	if len(c.Violations()) != maxViolations {
		t.Fatalf("recorded %d violations, cap is %d", len(c.Violations()), maxViolations)
	}
	if c.Dropped() != 10 {
		t.Fatalf("Dropped = %d, want 10", c.Dropped())
	}
	if hooked != maxViolations {
		t.Fatalf("OnViolation ran %d times, want %d (recorded only)", hooked, maxViolations)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "74 invariant violation(s)") {
		t.Fatalf("Err = %v", err)
	}
	if !strings.Contains(err.Error(), "boom 0") {
		t.Fatalf("Err does not carry the first violation: %v", err)
	}
	if got := c.Violations()[0].String(); !strings.Contains(got, "cycle 0") {
		t.Fatalf("Violation.String = %q", got)
	}
}
