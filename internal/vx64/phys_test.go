package vx64

import "testing"

// TestPhysMapOff pins the one rule from physical address to backing offset:
// identity below the hole, shifted down by the hole's size above it, and no
// backing in the hole, across either of its edges or past the end.
func TestPhysMapOff(t *testing.T) {
	m := PhysMap{Back: make(PhysMem, 0x3000), HoleLo: 0x1000, HoleHi: 0x8000}
	flat := PhysMap{Back: make(PhysMem, 0x3000)}
	cases := []struct {
		m      *PhysMap
		pa, n  uint64
		off    uint64
		backed bool
	}{
		{&m, 0, 8, 0, true},
		{&m, 0xFF8, 8, 0xFF8, true},
		{&m, 0xFFC, 8, 0, false}, // runs from RAM into the hole
		{&m, 0x1000, 1, 0, false},
		{&m, 0x7FF8, 8, 0, false},
		{&m, 0x7FFC, 8, 0, false}, // runs from the hole into the backing
		{&m, 0x8000, 8, 0x1000, true},
		{&m, 0x9FF8, 8, 0x2FF8, true},
		{&m, 0x9FFC, 8, 0, false}, // runs past the end
		{&m, 0xA000, 1, 0, false},
		{&flat, 0, 8, 0, true},
		{&flat, 0x2FF8, 8, 0x2FF8, true},
		{&flat, 0x2FFC, 8, 0, false},
		{&flat, 0x8000, 1, 0, false},
	}
	for _, tc := range cases {
		off, ok := tc.m.Off(tc.pa, tc.n)
		if ok != tc.backed || (ok && off != tc.off) {
			t.Errorf("hole [%#x, %#x): Off(%#x, %d) = %#x, %v; want %#x, %v",
				tc.m.HoleLo, tc.m.HoleHi, tc.pa, tc.n, off, ok, tc.off, tc.backed)
		}
	}
	m.W64(0x8008, 0x1122)
	if m.Back.R64(0x1008) != 0x1122 || m.R64(0x8008) != 0x1122 {
		t.Error("a write above the hole must land at its shifted backing offset")
	}
}
