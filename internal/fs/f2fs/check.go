package f2fs

import (
	"encoding/binary"
	"fmt"

	"flashwear/internal/blockdev"
)

// CheckReport is the outcome of an offline f2fs consistency check.
type CheckReport struct {
	// Corruptions are invariant violations; a recovered volume has none.
	Corruptions []string
	// LiveNodes and LiveDataBlocks count what the NAT reaches.
	LiveNodes      int
	LiveDataBlocks int
}

// Clean reports whether the volume is structurally consistent.
func (r CheckReport) Clean() bool { return len(r.Corruptions) == 0 }

// Check runs a read-only, mount-free consistency pass: the newest valid
// checkpoint is located, the NAT loaded, and every live node walked. It
// verifies NAT targets land in the main area, node blocks carry the IDs the
// NAT claims, and no physical block is referenced twice.
//
// Run it after a clean unmount or after a mount has performed crash
// recovery: a crashed-but-unrecovered image legitimately carries a stale
// on-disk NAT that roll-forward will correct, which this offline pass
// would misreport as corruption.
func Check(dev blockdev.Device) (CheckReport, error) {
	var rep CheckReport
	sbBlk, err := readBlock(dev, 0)
	if err != nil {
		return rep, err
	}
	sb, err := decodeSuperblock(sbBlk)
	if err != nil {
		return rep, err
	}
	// Newest valid checkpoint (for validation only; NAT is authoritative).
	valid := false
	for i := 0; i < 2; i++ {
		cb, err := readBlock(dev, sb.cpStart+uint32(i))
		if err != nil {
			return rep, err
		}
		if _, ok := decodeCheckpoint(cb); ok {
			valid = true
		}
	}
	if !valid {
		rep.Corruptions = append(rep.Corruptions, "no valid checkpoint slot")
		return rep, nil
	}

	inMain := func(addr uint32) bool {
		return addr >= sb.mainStart && addr < sb.mainStart+sb.segCount*SegBlocks
	}

	// Load the NAT.
	nat := make([]uint32, int(sb.natBlks)*natEntriesPerBlock)
	for i := uint32(0); i < sb.natBlks; i++ {
		nb, err := readBlock(dev, sb.natStart+i)
		if err != nil {
			return rep, err
		}
		base := int(i) * natEntriesPerBlock
		for e := 0; e < natEntriesPerBlock; e++ {
			nat[base+e] = binary.LittleEndian.Uint32(nb[e*4:])
		}
	}

	owner := map[uint32]uint32{} // physical block -> owning node id
	claim := func(addr, id uint32, what string) {
		if !inMain(addr) {
			rep.Corruptions = append(rep.Corruptions,
				fmt.Sprintf("node %d %s at %d outside main area", id, what, addr))
			return
		}
		if prev, dup := owner[addr]; dup {
			rep.Corruptions = append(rep.Corruptions,
				fmt.Sprintf("block %d claimed by nodes %d and %d", addr, prev, id))
			return
		}
		owner[addr] = id
	}

	for id := uint32(1); id < uint32(len(nat)); id++ {
		addr := nat[id]
		if addr == 0 {
			continue
		}
		if !inMain(addr) {
			rep.Corruptions = append(rep.Corruptions,
				fmt.Sprintf("NAT[%d] = %d outside main area", id, addr))
			continue
		}
		b, err := readBlock(dev, addr)
		if err != nil {
			return rep, err
		}
		n, _, _, err := decodeNode(b)
		if err != nil {
			rep.Corruptions = append(rep.Corruptions,
				fmt.Sprintf("NAT[%d] points at a non-node block", id))
			continue
		}
		if n.id != id {
			rep.Corruptions = append(rep.Corruptions,
				fmt.Sprintf("NAT[%d] points at node %d", id, n.id))
			continue
		}
		rep.LiveNodes++
		claim(addr, id, "node block")
		for s := uint32(0); s < n.nptrs(); s++ {
			if p := n.ptr(s); p != 0 {
				rep.LiveDataBlocks++
				claim(p, id, "data pointer")
			}
		}
		if n.isIndirect() {
			continue
		}
		for w := int64(0); w < NIndirectIDs; w++ {
			indirID := n.indirectID(w)
			if indirID == 0 {
				continue
			}
			if indirID >= uint32(len(nat)) || nat[indirID] == 0 {
				rep.Corruptions = append(rep.Corruptions,
					fmt.Sprintf("inode %d references missing indirect node %d", id, indirID))
			}
		}
	}
	return rep, nil
}
