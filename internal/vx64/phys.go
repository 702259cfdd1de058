package vx64

import (
	"encoding/binary"
	"fmt"
)

// PhysMem is the backing store of simulated host physical memory: one flat
// byte slice. Its accessors index it by backing offset; a PhysMap says
// which physical addresses it backs and at which offsets.
type PhysMem []byte

// R64 reads a 64-bit little-endian word at backing offset off.
func (p PhysMem) R64(off uint64) uint64 { return binary.LittleEndian.Uint64(p[off:]) }

// R32 reads a 32-bit word.
func (p PhysMem) R32(off uint64) uint32 { return binary.LittleEndian.Uint32(p[off:]) }

// R16 reads a 16-bit word.
func (p PhysMem) R16(off uint64) uint16 { return binary.LittleEndian.Uint16(p[off:]) }

// R8 reads a byte.
func (p PhysMem) R8(off uint64) uint8 { return p[off] }

// W64 writes a 64-bit little-endian word at backing offset off.
func (p PhysMem) W64(off uint64, v uint64) { binary.LittleEndian.PutUint64(p[off:], v) }

// W32 writes a 32-bit word.
func (p PhysMem) W32(off uint64, v uint32) { binary.LittleEndian.PutUint32(p[off:], v) }

// W16 writes a 16-bit word.
func (p PhysMem) W16(off uint64, v uint16) { binary.LittleEndian.PutUint16(p[off:], v) }

// W8 writes a byte.
func (p PhysMem) W8(off uint64, v uint8) { p[off] = v }

// PhysMap is host physical memory addressed by physical address. Back holds
// the populated physical ranges back to back, skipping one unbacked hole
// [HoleLo, HoleHi): an address below HoleLo sits at its own offset, one at
// or above HoleHi sits HoleHi-HoleLo bytes lower, and one in the hole or
// past the end of Back has no backing — the CPU raises #BUS for it, as for
// any address past the end of physical memory. HoleLo must not exceed
// len(Back). The zero hole is empty, so PhysMap{Back: b} backs exactly
// [0, len(b)) at offsets equal to the address.
type PhysMap struct {
	Back           PhysMem
	HoleLo, HoleHi uint64
}

// Off is the one rule from physical address to backing offset: it returns
// the offset of the n bytes (n ≥ 1) at pa, with ok=false when any of them
// is unbacked. An access below the hole costs one compare; physical
// addresses are below 2^52, so the sums cannot wrap.
func (m *PhysMap) Off(pa, n uint64) (off uint64, ok bool) {
	if pa+n <= m.HoleLo {
		return pa, true
	}
	if pa < m.HoleHi {
		return 0, false
	}
	off = pa - (m.HoleHi - m.HoleLo)
	return off, off+n <= uint64(len(m.Back))
}

// Bytes returns the backing of the n bytes at pa. It is for hypervisor-side
// code whose addresses come from the machine's layout and are backed by
// construction, so an unbacked range is an engine bug and panics.
func (m *PhysMap) Bytes(pa, n uint64) []byte {
	off, ok := m.Off(pa, n)
	if !ok {
		panic(fmt.Sprintf("vx64: physical range [%#x, %#x) is not backed", pa, pa+n))
	}
	return m.Back[off : off+n : off+n]
}

// R64 reads the 64-bit little-endian word at physical address pa.
func (m *PhysMap) R64(pa uint64) uint64 { return binary.LittleEndian.Uint64(m.Bytes(pa, 8)) }

// R32 reads a 32-bit word.
func (m *PhysMap) R32(pa uint64) uint32 { return binary.LittleEndian.Uint32(m.Bytes(pa, 4)) }

// R16 reads a 16-bit word.
func (m *PhysMap) R16(pa uint64) uint16 { return binary.LittleEndian.Uint16(m.Bytes(pa, 2)) }

// R8 reads a byte.
func (m *PhysMap) R8(pa uint64) uint8 { return m.Bytes(pa, 1)[0] }

// W64 writes the 64-bit little-endian word at physical address pa.
func (m *PhysMap) W64(pa uint64, v uint64) { binary.LittleEndian.PutUint64(m.Bytes(pa, 8), v) }

// W32 writes a 32-bit word.
func (m *PhysMap) W32(pa uint64, v uint32) { binary.LittleEndian.PutUint32(m.Bytes(pa, 4), v) }

// W16 writes a 16-bit word.
func (m *PhysMap) W16(pa uint64, v uint16) { binary.LittleEndian.PutUint16(m.Bytes(pa, 2), v) }

// W8 writes a byte.
func (m *PhysMap) W8(pa uint64, v uint8) { m.Bytes(pa, 1)[0] = v }
