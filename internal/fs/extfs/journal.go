package extfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Physical-block journaling, jbd2-style: each transaction is a descriptor
// block listing home addresses, full copies of the staged metadata blocks,
// and a commit block. Checkpointing (writing the blocks to their home
// locations) is lazy: it happens when the journal fills, at unmount, or
// during replay after a crash.

const (
	jsupMagic = 0x4A535550 // "JSUP"
	jdscMagic = 0x4A445343 // "JDSC"
	jcmtMagic = 0x4A434D54 // "JCMT"

	// maxTxnBlocks bounds one transaction's staged blocks so a descriptor
	// block can always list them.
	maxTxnBlocks = (BlockSize - 16) / 4
)

// journalSuper is the first block of the journal region.
type journalSuper struct {
	seq uint64 // sequence number of the first transaction in the log
}

// encode renders the journal superblock into b, a BlockSize buffer, and
// returns it.
func (j journalSuper) encode(b []byte) []byte {
	clear(b)
	binary.LittleEndian.PutUint32(b[0:], jsupMagic)
	binary.LittleEndian.PutUint64(b[8:], j.seq)
	return b
}

func decodeJournalSuper(b []byte) (journalSuper, error) {
	if binary.LittleEndian.Uint32(b[0:]) != jsupMagic {
		return journalSuper{}, fmt.Errorf("%w: bad journal superblock", ErrCorrupt)
	}
	return journalSuper{seq: binary.LittleEndian.Uint64(b[8:])}, nil
}

// stageMeta records a metadata block into the running transaction (and the
// cache). The slice is retained; callers must not reuse it.
func (v *FS) stageMeta(blk uint32, b []byte) {
	v.meta[blk] = b
	v.txn[blk] = b
}

// writable returns blk's content cur in a buffer the caller may modify and
// then stage. When the running transaction already holds blk, that block
// is its private copy (readMeta returned it as cur) and is modified in
// place; otherwise cur may be journaled, uncheckpointed state, which is
// never modified, and the buffer is a fresh copy.
func (v *FS) writable(blk uint32, cur []byte) []byte {
	if b, ok := v.txn[blk]; ok {
		return b
	}
	return bytes.Clone(cur)
}

// readMeta returns the current content of a metadata block, preferring the
// running transaction, then journaled-uncheckpointed state, then the cache,
// then the device.
func (v *FS) readMeta(blk uint32) ([]byte, error) {
	if b, ok := v.txn[blk]; ok {
		return b, nil
	}
	if b, ok := v.pending[blk]; ok {
		return b, nil
	}
	if b, ok := v.meta[blk]; ok {
		return b, nil
	}
	b, err := readBlock(v.dev, blk)
	if err != nil {
		return nil, err
	}
	v.meta[blk] = b
	return b, nil
}

// jEnd returns the first block past the journal region.
func (v *FS) jEnd() uint32 { return v.sb.jStart + v.sb.jBlks }

// commit writes the running transaction to the journal and issues a
// barrier. With an empty transaction it degenerates to a pure barrier —
// the lazytime fsync fast path.
func (v *FS) commit() error {
	if len(v.txn) == 0 {
		return v.dev.Flush()
	}
	// The journal superblock takes one of the region's blocks, and the
	// transaction needs a descriptor and a commit record besides its
	// bodies. One that does not fit is written home directly, after the
	// journaled blocks: left in pending, their older copies would go home
	// at the next checkpoint, over these.
	if len(v.txn) > maxTxnBlocks || len(v.txn)+2 > int(v.sb.jBlks)-1 {
		if err := v.checkpoint(); err != nil {
			return err
		}
		v.keys = sortedKeys(v.keys, v.txn)
		for _, blk := range v.keys {
			if err := writeBlock(v.dev, blk, v.txn[blk]); err != nil {
				return err
			}
		}
		clear(v.txn)
		return v.dev.Flush()
	}
	need := uint32(len(v.txn) + 2)
	if v.jHead+need > v.jEnd() {
		if err := v.checkpoint(); err != nil {
			return err
		}
	}
	// Descriptor. Homes are written in sorted order: map iteration order
	// would permute the journal bodies, and a power cut landing inside the
	// transaction would then make which blocks survived a function of that
	// permutation — the one thing a deterministic simulation cannot have.
	// The descriptor and the commit record are built in the FS's scratch
	// block, which WriteAt does not retain.
	desc := v.scratch
	clear(desc)
	le := binary.LittleEndian
	le.PutUint32(desc[0:], jdscMagic)
	le.PutUint64(desc[4:], v.jSeq)
	le.PutUint32(desc[12:], uint32(len(v.txn)))
	v.keys = sortedKeys(v.keys, v.txn)
	for i, h := range v.keys {
		le.PutUint32(desc[16+4*i:], h)
	}
	if err := writeBlock(v.dev, v.jHead, desc); err != nil {
		return err
	}
	v.jHead++
	// Block copies.
	for _, h := range v.keys {
		if err := writeBlock(v.dev, v.jHead, v.txn[h]); err != nil {
			return err
		}
		v.jHead++
	}
	// Commit record.
	cmt := v.scratch
	clear(cmt)
	le.PutUint32(cmt[0:], jcmtMagic)
	le.PutUint64(cmt[4:], v.jSeq)
	if err := writeBlock(v.dev, v.jHead, cmt); err != nil {
		return err
	}
	v.jHead++
	v.jSeq++
	v.statJournalCommits++
	v.statJournalBlocks += int64(len(v.keys)) + 2 // descriptor + bodies + commit
	if err := v.dev.Flush(); err != nil {
		return err
	}
	// Transaction is durable; move to pending checkpoint state.
	for blk, b := range v.txn {
		v.pending[blk] = b
	}
	clear(v.txn)
	return nil
}

// sortedKeys returns a map's keys in ascending order, in keys' storage —
// every loop that turns journaled state into device operations iterates in
// this order, so the on-flash history is a pure function of the workload
// (see commit).
func sortedKeys[V any](keys []uint32, m map[uint32]V) []uint32 {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// checkpoint writes all journaled blocks to their home locations and resets
// the journal head.
func (v *FS) checkpoint() error {
	v.keys = sortedKeys(v.keys, v.pending)
	for _, blk := range v.keys {
		if err := writeBlock(v.dev, blk, v.pending[blk]); err != nil {
			return err
		}
		v.statCheckpointWrites++
	}
	if err := v.dev.Flush(); err != nil {
		return err
	}
	clear(v.pending)
	if err := v.drainQuarantine(); err != nil {
		return err
	}
	v.jHead = v.sb.jStart + 1
	jsb := journalSuper{seq: v.jSeq}
	if err := writeBlock(v.dev, v.sb.jStart, jsb.encode(v.scratch)); err != nil {
		return err
	}
	return v.dev.Flush()
}

// replay applies committed journal transactions after an unclean shutdown
// and resets the journal. It returns the number of transactions applied.
func (v *FS) replay() (int, error) {
	jb, err := readBlock(v.dev, v.sb.jStart)
	if err != nil {
		return 0, err
	}
	jsb, err := decodeJournalSuper(jb)
	if err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	pos := v.sb.jStart + 1
	seq := jsb.seq
	applied := 0
	for pos < v.jEnd() {
		db, err := readBlock(v.dev, pos)
		if err != nil {
			break
		}
		if le.Uint32(db[0:]) != jdscMagic || le.Uint64(db[4:]) != seq {
			break
		}
		count := le.Uint32(db[12:])
		if count == 0 || count > maxTxnBlocks || pos+count+1 >= v.jEnd() {
			break
		}
		// Verify the commit record before applying anything.
		cb, err := readBlock(v.dev, pos+count+1)
		if err != nil {
			break
		}
		if le.Uint32(cb[0:]) != jcmtMagic || le.Uint64(cb[4:]) != seq {
			break // crashed mid-transaction: discard
		}
		for i := uint32(0); i < count; i++ {
			home := le.Uint32(db[16+4*i:])
			if home >= v.sb.totalBlocks {
				return applied, fmt.Errorf("%w: journal home %d out of range", ErrCorrupt, home)
			}
			body, err := readBlock(v.dev, pos+1+i)
			if err != nil {
				return applied, err
			}
			if err := writeBlock(v.dev, home, body); err != nil {
				return applied, err
			}
		}
		pos += count + 2
		seq++
		applied++
	}
	if err := v.dev.Flush(); err != nil {
		return applied, err
	}
	v.jSeq = seq
	v.jHead = v.sb.jStart + 1
	if err := writeBlock(v.dev, v.sb.jStart, journalSuper{seq: seq}.encode(v.scratch)); err != nil {
		return applied, err
	}
	return applied, v.dev.Flush()
}
