package f2fs

import "fmt"

// rollForward scans the main area for node blocks written after the last
// checkpoint with the fsync marker and re-applies them to the NAT — F2FS's
// roll-forward recovery, which is what makes fsync durable without paying a
// checkpoint per sync.
func (v *FS) rollForward(cpVer uint64) error {
	type hit struct {
		ver  uint64
		addr uint32
		dead bool
	}
	best := make(map[uint32]hit)
	mainEnd := v.sb.mainStart + v.sb.segCount*SegBlocks
	for addr := v.sb.mainStart; addr < mainEnd; addr++ {
		b, err := readBlock(v.dev, addr)
		if err != nil {
			continue // unreadable blocks simply don't participate
		}
		n, ver, fsync, err := decodeNode(b)
		if err != nil || !fsync || ver <= cpVer {
			continue
		}
		if n.id == 0 || int(n.id) >= len(v.nat) {
			continue
		}
		if prev, ok := best[n.id]; !ok || ver > prev.ver {
			best[n.id] = hit{ver: ver, addr: addr, dead: n.flags&nodeDead != 0}
		}
		if ver > v.ver {
			v.ver = ver
		}
	}
	for id, h := range best {
		if h.dead {
			v.natSet(id, 0)
		} else {
			v.natSet(id, h.addr)
		}
		v.statRolledForward++
	}
	return nil
}

// rebuild reconstructs the SIT and SSA from the NAT and live nodes — the
// fsck-style pass every mount runs. It also re-positions the active logs on
// fresh segments.
func (v *FS) rebuild() error {
	mainBlocks := v.sb.segCount * SegBlocks
	v.segState = make([]uint8, v.sb.segCount)
	v.validCount = make([]uint16, v.sb.segCount)
	v.validMap = make([]uint64, (mainBlocks+63)/64)
	v.owner = make([]uint32, mainBlocks)
	v.ofs = make([]uint32, mainBlocks)

	for id := uint32(1); id < uint32(len(v.nat)); id++ {
		addr := v.nat[id]
		if addr == 0 {
			continue
		}
		if !v.inMain(addr) {
			return fmt.Errorf("%w: NAT[%d] = %d outside main area", ErrCorrupt, id, addr)
		}
		b, err := readBlock(v.dev, addr)
		if err != nil {
			return err
		}
		n, _, _, err := decodeNode(b)
		if err != nil {
			return fmt.Errorf("NAT[%d]: %w", id, err)
		}
		if n.id != id {
			return fmt.Errorf("%w: NAT[%d] points at node %d", ErrCorrupt, id, n.id)
		}
		v.markValid(addr, id, ownerIsNode)
		for s := uint32(0); s < n.nptrs(); s++ {
			if p := n.ptr(s); p != 0 && v.inMain(p) {
				v.markValid(p, id, s)
			}
		}
	}

	v.freeSegs = 0
	for s := uint32(0); s < v.sb.segCount; s++ {
		if v.validCount[s] == 0 {
			v.segState[s] = segFree
			v.freeSegs++
		} else {
			v.segState[s] = segUsed
		}
	}
	// Fresh active logs.
	v.dataLog = logState{seg: ^uint32(0)}
	v.nodeLog = logState{seg: ^uint32(0)}
	return nil
}
