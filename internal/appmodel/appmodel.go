// Package appmodel provides synthetic models of mobile application I/O
// behaviour — the "model of expected mobile application I/O behavior"
// §4.5 says a refined mitigation should be driven by. It includes benign
// apps (camera imports, a chat app, a system updater), the accidentally
// harmful Spotify cache bug the paper cites [26], and hooks to run them
// alongside the deliberate wear attack so the mitigation classifier can be
// evaluated for false positives and negatives.
package appmodel

import (
	"errors"
	"fmt"
	"time"

	"flashwear/internal/fs"
	"flashwear/internal/simclock"
	"flashwear/internal/simrand"
)

// Model is an application whose storage behaviour unfolds over simulated
// time. Step runs roughly d of app life (I/O plus idling); implementations
// advance the clock through their own waits.
type Model interface {
	Name() string
	Step(d time.Duration) error
}

// base carries what every model needs.
type base struct {
	name    string
	storage fs.FileSystem
	clock   *simclock.Clock
	rng     *simrand.Rand
}

func (b *base) Name() string { return b.name }

// idle advances simulated time without I/O.
func (b *base) idle(d time.Duration) {
	if d > 0 {
		b.clock.Advance(d)
	}
}

// --- Camera import: large sequential bursts, then silence ---

// Camera models a photo app: every few hours the user imports a burst of
// photos (large sequential writes, one file each), then nothing. Bursty,
// high-volume-per-event, low duty cycle: the §4.5 benign case that naive
// rate limiting punishes.
type Camera struct {
	base
	// BurstBytes per import session; PhotoBytes per file.
	BurstBytes int64
	PhotoBytes int64
	// Every is the period between imports.
	Every time.Duration
	// KeepPhotos bounds the library: once exceeded, the oldest photos are
	// deleted (the user offloads to the cloud). Zero keeps everything.
	KeepPhotos int

	shots  int
	oldest int
	nextAt time.Duration
}

// NewCamera builds a camera model with typical defaults (24 MiB bursts of
// 3 MiB photos every 6 hours).
func NewCamera(storage fs.FileSystem, clock *simclock.Clock, seed int64) *Camera {
	return &Camera{
		base:       base{name: "camera", storage: storage, clock: clock, rng: simrand.New(seed)},
		BurstBytes: 24 << 20,
		PhotoBytes: 3 << 20,
		Every:      6 * time.Hour,
	}
}

// Step implements Model.
func (c *Camera) Step(d time.Duration) error {
	end := c.clock.Now() + d
	for c.clock.Now() < end {
		if now := c.clock.Now(); now < c.nextAt {
			// Not time for the next import yet: idle out the slice.
			wait := c.nextAt - now
			if now+wait > end {
				wait = end - now
			}
			c.idle(wait)
			continue
		}
		// One import session...
		var burst int64
		for burst < c.BurstBytes {
			name := fmt.Sprintf("/IMG_%05d.jpg", c.shots)
			c.shots++
			f, err := c.storage.Create(name)
			if err != nil {
				return err
			}
			chunk := make([]byte, 512<<10)
			for off := int64(0); off < c.PhotoBytes; off += int64(len(chunk)) {
				if _, err := f.WriteAt(chunk, off); err != nil {
					return err
				}
			}
			if err := f.Sync(); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			burst += c.PhotoBytes
		}
		// Offload old photos once the library exceeds its bound.
		if c.KeepPhotos > 0 {
			for c.shots-c.oldest > c.KeepPhotos {
				if err := c.storage.Remove(fmt.Sprintf("/IMG_%05d.jpg", c.oldest)); err != nil {
					return err
				}
				c.oldest++
			}
		}
		// ...then hours of silence until the next one.
		c.nextAt = c.clock.Now() + c.Every
	}
	return nil
}

// --- Chat app: tiny appends with fsync, steady but minuscule ---

// Chat models a messaging app: a few KiB appended and fsynced to a log
// every couple of minutes, plus an occasional small database rewrite via
// the write-temp-then-rename idiom. Persistent but tiny: the classifier
// must never flag it despite its nonstop presence.
type Chat struct {
	base
	MessageBytes int64
	Every        time.Duration
	// LogRotateBytes rotates the message log once it grows past this
	// size (the previous generation is replaced), bounding the app's
	// footprint like a real logger.
	LogRotateBytes int64

	log    fs.File
	logOff int64
	dbGen  int
	nextAt time.Duration
}

// NewChat builds a chat model (2 KiB messages every 2 minutes).
func NewChat(storage fs.FileSystem, clock *simclock.Clock, seed int64) *Chat {
	return &Chat{
		base:           base{name: "chat", storage: storage, clock: clock, rng: simrand.New(seed)},
		MessageBytes:   2 << 10,
		Every:          2 * time.Minute,
		LogRotateBytes: 1 << 20,
	}
}

// ensureLog opens (or rotates to) the active message log.
func (c *Chat) ensureLog() error {
	if c.log != nil && c.logOff < c.LogRotateBytes {
		return nil
	}
	if c.log != nil {
		if err := c.log.Close(); err != nil {
			return err
		}
		c.log = nil
		if err := c.storage.Rename("/messages.log", "/messages.log.1"); err != nil {
			return err
		}
	}
	log, err := openOrCreate(c.storage, "/messages.log")
	if err != nil {
		return err
	}
	c.log = log
	c.logOff = log.Size()
	return nil
}

// Step implements Model.
func (c *Chat) Step(d time.Duration) error {
	end := c.clock.Now() + d
	for c.clock.Now() < end {
		if now := c.clock.Now(); now < c.nextAt {
			wait := c.nextAt - now
			if now+wait > end {
				wait = end - now
			}
			c.idle(wait)
			continue
		}
		if err := c.ensureLog(); err != nil {
			return err
		}
		msg := make([]byte, c.MessageBytes)
		if _, err := c.log.WriteAt(msg, c.logOff); err != nil {
			return err
		}
		c.logOff += c.MessageBytes
		if err := c.log.Sync(); err != nil {
			return err
		}
		// Every ~50 messages, compact the "database" atomically.
		if c.rng.Intn(50) == 0 {
			tmp, err := c.storage.Create("/db.tmp")
			if err != nil {
				return err
			}
			if _, err := tmp.WriteAt(make([]byte, 64<<10), 0); err != nil {
				return err
			}
			if err := tmp.Sync(); err != nil {
				return err
			}
			if err := tmp.Close(); err != nil {
				return err
			}
			if err := c.storage.Rename("/db.tmp", "/db.bin"); err != nil {
				return err
			}
			c.dbGen++
		}
		c.nextAt = c.clock.Now() + c.Every
	}
	return nil
}

// --- System updater: one huge sequential download, rarely ---

// Updater models a monthly OS/app update: a single large sequential
// download verified and swapped in with a rename.
type Updater struct {
	base
	UpdateBytes int64
	Every       time.Duration

	nextAt time.Duration
}

// NewUpdater builds an updater model (128 MiB monthly, scaled down by the
// caller as needed).
func NewUpdater(storage fs.FileSystem, clock *simclock.Clock, seed int64) *Updater {
	return &Updater{
		base:        base{name: "updater", storage: storage, clock: clock, rng: simrand.New(seed)},
		UpdateBytes: 128 << 20,
		Every:       30 * 24 * time.Hour,
	}
}

// Step implements Model.
func (u *Updater) Step(d time.Duration) error {
	end := u.clock.Now() + d
	for u.clock.Now() < end {
		if now := u.clock.Now(); now < u.nextAt {
			wait := u.nextAt - now
			if now+wait > end {
				wait = end - now
			}
			u.idle(wait)
			continue
		}
		f, err := u.storage.Create("/update.pkg.tmp")
		if err != nil {
			return err
		}
		chunk := make([]byte, 1<<20)
		for off := int64(0); off < u.UpdateBytes; off += int64(len(chunk)) {
			n := int64(len(chunk))
			if off+n > u.UpdateBytes {
				n = u.UpdateBytes - off
			}
			if _, err := f.WriteAt(chunk[:n], off); err != nil {
				return err
			}
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := u.storage.Rename("/update.pkg.tmp", "/update.pkg"); err != nil {
			return err
		}
		u.nextAt = u.clock.Now() + u.Every
	}
	return nil
}

// --- The Spotify cache bug [26] ---

// SpotifyBug models the bug the paper cites: "for five months Spotify has
// badly abused users' storage drives" by continuously rewriting large
// cache files even while idle. Not malicious — just poorly written — but
// its wear signature is the attack's, and the classifier should flag it.
type SpotifyBug struct {
	base
	CacheBytes int64
	ReqBytes   int64
}

// NewSpotifyBug builds the buggy cache writer (32 MiB cache rewritten in
// 128 KiB chunks, continuously).
func NewSpotifyBug(storage fs.FileSystem, clock *simclock.Clock, seed int64) *SpotifyBug {
	return &SpotifyBug{
		base:       base{name: "spotify-bug", storage: storage, clock: clock, rng: simrand.New(seed)},
		CacheBytes: 32 << 20,
		ReqBytes:   128 << 10,
	}
}

// Step implements Model.
func (s *SpotifyBug) Step(d time.Duration) error {
	end := s.clock.Now() + d
	f, err := openOrCreate(s.storage, "/mercury.db")
	if err != nil {
		return err
	}
	defer f.Close()
	if f.Size() < s.CacheBytes {
		if _, err := f.WriteAt(make([]byte, s.CacheBytes), 0); err != nil {
			return err
		}
	}
	buf := make([]byte, s.ReqBytes)
	slots := s.CacheBytes / s.ReqBytes
	for s.clock.Now() < end {
		off := s.rng.Int63n(slots) * s.ReqBytes
		if _, err := f.WriteAt(buf, off); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// openOrCreate opens a file, creating it if missing.
func openOrCreate(fsys fs.FileSystem, path string) (fs.File, error) {
	f, err := fsys.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return fsys.Create(path)
	}
	return f, err
}
