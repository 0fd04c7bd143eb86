// Package poison overwrites recycled storage in test builds.
//
// The packet path lends memory instead of handing it out: the medium's
// frame buffers, the reassembly table's delivered packet buffer and a
// fragmenter's frame arena are each reused once their lifetime ends. A
// reader that keeps such memory past its lifetime would read a later
// frame's bytes, which is usually the same shape and easy to miss. Built
// with the retri_poison tag, Fill overwrites the memory when it is
// released, so a stale reader reads garbage and a golden output moves.
// Without the tag Fill compiles to nothing.
package poison

// marker is the byte released memory is overwritten with.
const marker = 0xDB

// Fill overwrites b with the marker byte when Enabled.
func Fill(b []byte) {
	if !Enabled {
		return
	}
	for i := range b {
		b[i] = marker
	}
}
