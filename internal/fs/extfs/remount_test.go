package extfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/fs"
)

// volumeScript runs a seeded mix of mkdirs, creates, writes through direct
// and indirect blocks, truncates, removes, renames and syncs on v.
func volumeScript(t *testing.T, v *FS, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dirs := []string{"", "/d0", "/d1"}
	path := func() string { return fmt.Sprintf("%s/f%d", dirs[rng.Intn(len(dirs))], rng.Intn(5)) }
	var f fs.File
	for op := range ops {
		var err error
		switch rng.Intn(9) {
		case 0:
			err = v.Mkdir(dirs[1+rng.Intn(2)])
		case 1, 2:
			f, err = v.Create(path())
		case 3, 4:
			if f != nil {
				blocks := 1 + rng.Intn(NDirect+3)
				_, err = f.WriteAt(bytes.Repeat([]byte{byte(op)}, blocks*BlockSize), int64(rng.Intn(NDirect+2))*BlockSize)
			}
		case 5:
			if f != nil {
				err = f.Truncate(int64(rng.Intn(NDirect+4)) * BlockSize)
			}
		case 6:
			err = v.Remove(path())
			f = nil
		case 7:
			err = v.Rename(path(), path())
			f = nil
		default:
			if f != nil {
				err = f.Sync()
			} else {
				err = v.Sync()
			}
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, fs.ErrExist) &&
			!errors.Is(err, fs.ErrNoSpace) && !errors.Is(err, fs.ErrNotEmpty) && !errors.Is(err, fs.ErrIsDir) {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

// contents walks the volume and renders every path with its size and
// bytes.
func contents(t *testing.T, v *FS) string {
	t.Helper()
	var out bytes.Buffer
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := v.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			p := dir + "/" + e.Name
			if dir == "/" {
				p = "/" + e.Name
			}
			if e.IsDir {
				fmt.Fprintf(&out, "%s/\n", p)
				walk(p)
				continue
			}
			f, err := v.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, f.Size())
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %d %x\n", p, len(buf), buf)
		}
	}
	walk("/")
	return out.String()
}

// deviceBytes reads the whole device.
func deviceBytes(t *testing.T, dev blockdev.Device) []byte {
	t.Helper()
	b := make([]byte, dev.Size())
	if err := dev.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStaleHandleAfterInPlaceRemount: a file opened in one mount fails
// with ErrUnmounted in every later one, although the FS it points at is
// mounted again — after a clean unmount, after SimulateCrash, and when a
// mounted volume is remounted without either (a power cut).
func TestStaleHandleAfterInPlaceRemount(t *testing.T) {
	for _, end := range []string{"unmount", "crash", "none"} {
		t.Run(end, func(t *testing.T) {
			v, dev := newVolume(t, 4, fs.Options{})
			f, err := v.Create("/f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("old mount"), 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			switch end {
			case "unmount":
				if err := v.Unmount(); err != nil {
					t.Fatal(err)
				}
			case "crash":
				v.SimulateCrash()
			}
			if got, err := Remount(v, dev, fs.Options{}); err != nil || got != v {
				t.Fatalf("Remount = %p, %v; want %p", got, err, v)
			}
			if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, fs.ErrUnmounted) {
				t.Errorf("WriteAt through a handle of the earlier mount: %v", err)
			}
			if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, fs.ErrUnmounted) {
				t.Errorf("ReadAt through a handle of the earlier mount: %v", err)
			}
			if err := f.Sync(); !errors.Is(err, fs.ErrUnmounted) {
				t.Errorf("Sync through a handle of the earlier mount: %v", err)
			}
			if err := f.Truncate(0); !errors.Is(err, fs.ErrUnmounted) {
				t.Errorf("Truncate through a handle of the earlier mount: %v", err)
			}
			g, err := v.Open("/f")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 9)
			if _, err := g.ReadAt(buf, 0); err != nil || string(buf) != "old mount" {
				t.Fatalf("a handle of the new mount reads %q, %v", buf, err)
			}
		})
	}
}

// TestInPlaceRemountEqualsMount: after a clean unmount and after
// SimulateCrash, remounting a volume in place — into its own FS, or into
// one that last mounted another device — mounts what Mount mounts: the
// same Stats and file contents, the same device bytes after one more
// script and an unmount, and a clean Fsck.
func TestInPlaceRemountEqualsMount(t *testing.T) {
	for _, end := range []string{"unmount", "crash"} {
		for _, into := range []string{"own", "foreign"} {
			t.Run(end+"/"+into, func(t *testing.T) {
				ref, refDev := newVolume(t, 4, fs.Options{})
				reu, reuDev := newVolume(t, 4, fs.Options{})
				for _, v := range []*FS{ref, reu} {
					volumeScript(t, v, 7, 300)
					if end == "unmount" {
						if err := v.Unmount(); err != nil {
							t.Fatal(err)
						}
					} else {
						v.SimulateCrash()
					}
				}
				ref, err := Mount(refDev, fs.Options{})
				if err != nil {
					t.Fatal(err)
				}
				prev := reu
				if into == "foreign" {
					other, _ := newVolume(t, 8, fs.Options{})
					volumeScript(t, other, 8, 200)
					prev = other
				}
				if reu, err = Remount(prev, reuDev, fs.Options{}); err != nil {
					t.Fatal(err)
				}
				if a, b := ref.Stats(), reu.Stats(); a != b {
					t.Fatalf("stats %+v after Mount, %+v after an in-place remount", a, b)
				}
				if end == "crash" && ref.Stats().ReplayedTxns == 0 {
					t.Fatal("the crash left no transaction to replay")
				}
				if a, b := contents(t, ref), contents(t, reu); a != b {
					t.Fatalf("the volume reads differently after an in-place remount")
				}
				for _, v := range []*FS{ref, reu} {
					volumeScript(t, v, 9, 200)
				}
				if a, b := ref.Stats(), reu.Stats(); a != b || a.CheckpointWrites == 0 {
					t.Fatalf("stats %+v after Mount's script, %+v after the remount's", a, b)
				}
				for _, v := range []*FS{ref, reu} {
					if err := v.Unmount(); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(deviceBytes(t, refDev), deviceBytes(t, reuDev)) {
					t.Fatal("the devices differ after the same script on both mounts")
				}
				rep, err := Fsck(reuDev)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					t.Fatalf("fsck after an in-place remount: %v", rep.Corruptions)
				}
			})
		}
	}
}
