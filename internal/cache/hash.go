package cache

import "math/bits"

// sliceMasks are the XOR masks of the complex slice-hash. Each mask selects
// a subset of physical-address bits (of the line address, i.e. addr >> 6);
// the parity of the selected bits yields one slice-index bit. The structure
// mirrors the functions reverse-engineered for Sandy Bridge / Ivy Bridge /
// Haswell parts (Maurice et al., Inci et al.); the exact constants are not
// load-bearing, only that the hash spreads page-aligned addresses across
// slices and is initially unknown to the attacker.
var sliceMasks = [3]uint64{
	0x1B5F575440, // h0
	0x2EB5FAA880, // h1
	0x3CCCC93100, // h2
}

// SliceOf returns the slice index for a physical address under an
// nSlices-slice hash (nSlices must be a power of two, at most 8).
func SliceOf(addr uint64, nSlices int) int {
	if nSlices == 1 {
		return 0
	}
	s := 0
	n := bits.TrailingZeros(uint(nSlices))
	for b := 0; b < n; b++ {
		s |= int(bits.OnesCount64(addr&sliceMasks[b])&1) << b
	}
	return s
}

// Index returns (slice, set) for a physical address under the config's
// geometry: the set index comes from the bits just above the 6 line-offset
// bits (Fig 2), the slice from the XOR hash of the full line address.
func (c Config) Index(addr uint64) (slice, set int) {
	set = int((addr >> 6) & uint64(c.SetsPerSlice-1))
	slice = SliceOf(addr, c.Slices)
	return slice, set
}

// GlobalSet flattens (slice, set) into a single set id in
// [0, Slices*SetsPerSlice).
func (c Config) GlobalSet(addr uint64) int {
	slice, set := c.Index(addr)
	return slice*c.SetsPerSlice + set
}

// AlignedIndexOf returns the canonical index of a global set among the
// page-aligned sets, or -1 if the set is not page-aligned-reachable.
func (c Config) AlignedIndexOf(globalSet int) int {
	perSlice := c.SetsPerSlice / 64
	if perSlice == 0 {
		perSlice = 1
	}
	slice := globalSet / c.SetsPerSlice
	set := globalSet % c.SetsPerSlice
	if set%64 != 0 {
		return -1
	}
	return slice*perSlice + set/64
}

// AlignedSetCount returns the number of distinct global sets that
// page-aligned addresses can map to. With a 4 KB page, the low 6 set-index
// bits of a page-aligned address are zero, leaving SetsPerSlice/64 indices
// per slice (paper §III-B: 32 per slice x 8 slices = 256).
func (c Config) AlignedSetCount() int {
	perSlice := c.SetsPerSlice / 64
	if perSlice == 0 {
		perSlice = 1
	}
	return perSlice * c.Slices
}
