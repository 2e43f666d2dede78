package blockdev

import "fmt"

// MemDevice is a RAM-backed Device for file-system unit tests. Sectors are
// allocated lazily so sparse devices stay cheap.
type MemDevice struct {
	size    int64
	sector  int
	sectors map[int64][]byte
	flushes int64
}

// NewMem returns a memory device of the given size and sector size.
func NewMem(size int64, sectorSize int) (*MemDevice, error) {
	if sectorSize <= 0 || size <= 0 || size%int64(sectorSize) != 0 {
		return nil, fmt.Errorf("blockdev: NewMem(size=%d, sector=%d): invalid", size, sectorSize)
	}
	return &MemDevice{size: size, sector: sectorSize, sectors: make(map[int64][]byte)}, nil
}

// Size implements Device.
func (m *MemDevice) Size() int64 { return m.size }

// SectorSize implements Device.
func (m *MemDevice) SectorSize() int { return m.sector }

// Flushes returns how many times Flush was called (for FS barrier tests).
func (m *MemDevice) Flushes() int64 { return m.flushes }

// ReadAt implements Device.
func (m *MemDevice) ReadAt(p []byte, off int64) error {
	if err := CheckRange(m, off, int64(len(p))); err != nil {
		return err
	}
	for i := 0; i < len(p); i += m.sector {
		sec := (off + int64(i)) / int64(m.sector)
		if s, ok := m.sectors[sec]; ok {
			copy(p[i:i+m.sector], s)
		} else {
			clear(p[i : i+m.sector])
		}
	}
	return nil
}

// WriteAt implements Device.
func (m *MemDevice) WriteAt(p []byte, off int64) error {
	if err := CheckRange(m, off, int64(len(p))); err != nil {
		return err
	}
	for i := 0; i < len(p); i += m.sector {
		sec := (off + int64(i)) / int64(m.sector)
		s, ok := m.sectors[sec]
		if !ok {
			s = make([]byte, m.sector)
			m.sectors[sec] = s
		}
		copy(s, p[i:i+m.sector])
	}
	return nil
}

// WritePrefix implements PrefixWriter. It refuses a write that breaks the
// promise, a non-zero byte at or past n, so every file-system test that
// mounts a MemDevice checks each length its writer states.
func (m *MemDevice) WritePrefix(p []byte, n int, off int64) error {
	if err := CheckPrefix(n, len(p)); err != nil {
		return err
	}
	for i, c := range p[n:] {
		if c != 0 {
			return fmt.Errorf("blockdev: WritePrefix at %d: byte %d is %#x past the %d used", off, n+i, c, n)
		}
	}
	return m.WriteAt(p, off)
}

// WriteAccounted implements Device; for a RAM device it simply drops any
// previous payload in the range.
func (m *MemDevice) WriteAccounted(off, length int64) error {
	return m.Discard(off, length)
}

// Discard implements Device.
func (m *MemDevice) Discard(off, length int64) error {
	if err := CheckRange(m, off, length); err != nil {
		return err
	}
	for i := int64(0); i < length; i += int64(m.sector) {
		delete(m.sectors, (off+i)/int64(m.sector))
	}
	return nil
}

// Flush implements Device.
func (m *MemDevice) Flush() error {
	m.flushes++
	return nil
}
