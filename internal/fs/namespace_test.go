package fs

import (
	"bytes"
	"testing"
)

// FuzzParseDirent pins the directory slot decoder's properties, for any
// DirentSize-byte slot (the input, cut or zero-padded to that size):
//   - it never panics;
//   - ok is false exactly when the id is not 0 and the name length is
//     above DirentSize-5 = 251;
//   - a returned name lies inside the slot, right after its length byte,
//     and is as long as that byte says;
//   - Dirent(id, name) round-trips through it for every id other than 0
//     and every name CheckName accepts.
func FuzzParseDirent(f *testing.F) {
	valid := Dirent(7, "wear00.dat")
	long := Dirent(1, "x")
	long[4] = 251
	corrupt := Dirent(3, "victim")
	corrupt[4] = 255
	free := Dirent(0, "")
	free[4] = 255
	for _, s := range [][DirentSize]byte{valid, long, corrupt, free} {
		f.Add(s[:], uint32(9), "a.bin")
	}
	f.Add([]byte{1, 0, 0, 0, 252}, uint32(1), "")
	f.Fuzz(func(t *testing.T, data []byte, id uint32, name string) {
		slot := make([]byte, DirentSize)
		copy(slot, data)
		gotID, got, ok := ParseDirent(slot)
		wantID := uint32(slot[0]) | uint32(slot[1])<<8 | uint32(slot[2])<<16 | uint32(slot[3])<<24
		if gotID != wantID {
			t.Fatalf("id = %d, want %d", gotID, wantID)
		}
		if wantOK := wantID == 0 || slot[4] <= DirentSize-5; ok != wantOK {
			t.Fatalf("ok = %v for id %d and name length %d", ok, wantID, slot[4])
		}
		if ok && wantID != 0 {
			if len(got) != int(slot[4]) || len(got) > 0 && &got[0] != &slot[5] {
				t.Fatalf("name of length %d is not the slot's %d bytes after its length byte", len(got), slot[4])
			}
		}

		if id == 0 || CheckName(name) != nil {
			return
		}
		e := Dirent(id, name)
		if gotID, got, ok := ParseDirent(e[:]); !ok || gotID != id || !bytes.Equal(got, []byte(name)) {
			t.Fatalf("Dirent(%d, %q) parses to (%d, %q, %v)", id, name, gotID, got, ok)
		}
	})
}
