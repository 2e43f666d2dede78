package fleetd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"sync"

	"flashwear/internal/hostio"
	"flashwear/internal/runtrace"
)

// Checkpoint directory layout, under the manager's data directory:
//
//	<data>/<campaign-id>/campaign.json           submitted spec + name
//	<data>/<campaign-id>/shard-NNNN/epoch-NNNNNN.ckpt
//
// One .ckpt file is one (shard, epoch) cell:
//
//	"FWFLTCKP" | u32 version | header frame | device frame... | footer frame | "FWCKDONE"
//
// where every frame is [1B type][u32 payload length][payload][u32 CRC32].
// Files are written to a .tmp sibling and atomically renamed into place
// only after the end marker, so a crash at any byte leaves either the
// previous complete file or a .tmp the sweep ignores.

// ckptBufSize is the size of the buffered reader and writer a cell is
// streamed through. A campaign's sweep reads at most one cell while it
// writes another, so it keeps one of each for all its cells (cellBufs).
const ckptBufSize = 1 << 20

// cellBufs is the cell I/O buffers of one sweep, or of one fork's copy.
type cellBufs struct {
	br *bufio.Reader
	bw *bufio.Writer
}

func newCellBufs() *cellBufs {
	return &cellBufs{br: bufio.NewReaderSize(nil, ckptBufSize), bw: bufio.NewWriterSize(nil, ckptBufSize)}
}

// shardDir and cellPath name the cells.
func shardDir(campaignDir string, shard int) string {
	return filepath.Join(campaignDir, fmt.Sprintf("shard-%04d", shard))
}

func cellPath(campaignDir string, shard, epoch int) string {
	return filepath.Join(shardDir(campaignDir, shard), fmt.Sprintf("epoch-%06d.ckpt", epoch))
}

// errCheckpointIO tags every host-I/O failure on the checkpoint write
// path — create, buffered write, fsync, close, rename. The sweep keys its
// retry-then-degrade policy on it: an error carrying this sentinel means
// the simulation itself is fine and only durability is in trouble, so the
// cell may be recomputed and retried (or carried in memory); any other
// error is a sim or corruption failure and stops the campaign.
var errCheckpointIO = errors.New("fleetd: checkpoint host I/O")

// ckptIOErr wraps a host-I/O failure with the retryable sentinel.
func ckptIOErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errCheckpointIO, err)
}

// ckptWriter streams one cell to disk. Device frames may be appended from
// multiple workers concurrently; finish seals the file and renames it
// into place. All host I/O goes through the injected hostio.FS, and every
// I/O failure it surfaces carries errCheckpointIO.
type ckptWriter struct {
	mu      sync.Mutex
	fsys    hostio.FS
	f       hostio.File
	bw      *bufio.Writer
	path    string
	tmp     string
	err     error
	bytes   int64    // frames + magic written so far
	metrics *Metrics // optional ops accounting; nil for bare writers

	// Optional execution tracing (nil-safe): the fsync in finish bills
	// to the checkpoint_fsync phase of this cell.
	trace        *runtrace.Tracer
	shard, epoch int
}

// newCkptWriter starts a cell at path, streaming it through bufs' writer,
// which is the writer's until finish or abort.
func newCkptWriter(fsys hostio.FS, path string, hdr fileHeader, bufs *cellBufs) (*ckptWriter, error) {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, ckptIOErr(err)
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, ckptIOErr(err)
	}
	bw := bufs.bw
	bw.Reset(f)
	w := &ckptWriter{fsys: fsys, f: f, bw: bw, path: path, tmp: tmp}
	w.bytes += int64(len(fileMagic)) + 4
	w.bw.Write(binary.LittleEndian.AppendUint32([]byte(fileMagic), ckptVersion))
	var c codec
	c.fileHeader(&hdr)
	w.frameLocked(frameHeader, c.b)
	if w.err != nil {
		w.abort()
		return nil, w.err
	}
	return w, nil
}

// releaseLocked lets go of the write buffer once the file is closed; the
// writer is finished or aborted and must not be written again.
func (w *ckptWriter) releaseLocked() {
	if w.bw != nil {
		w.bw.Reset(nil)
		w.bw = nil
	}
}

// frameLocked appends one frame; the caller holds mu (or is the only
// goroutine with access).
func (w *ckptWriter) frameLocked(typ byte, payload []byte) {
	if w.err != nil {
		return
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.err = ckptIOErr(err)
		return
	}
	if _, err := w.bw.Write(payload); err != nil {
		w.err = ckptIOErr(err)
		return
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(crc[:]); err != nil {
		w.err = ckptIOErr(err)
		return
	}
	w.bytes += int64(len(hdr)) + int64(len(payload)) + int64(len(crc))
}

// writeDevice appends an encoded device state as a device-state frame.
// Safe for concurrent use; the record order in the file is whatever order
// workers finish in, which is fine because every consumer folds records
// commutatively.
func (w *ckptWriter) writeDevice(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frameLocked(frameDevice, payload)
	return w.err
}

// finish appends the footer frame and the end marker, syncs, and renames
// the file into place. After finish returns nil the cell is durable. Any
// failure — including a failed sync or rename — removes the .tmp, so no
// error path leaves a stray temporary behind.
func (w *ckptWriter) finish(ft *epochFooter) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var c codec
	c.footer(ft)
	w.frameLocked(frameFooter, c.b)
	if w.err == nil {
		if _, err := w.bw.WriteString(endMagic); err != nil {
			w.err = ckptIOErr(err)
		}
		w.bytes += int64(len(endMagic))
	}
	if w.err == nil {
		if err := w.bw.Flush(); err != nil {
			w.err = ckptIOErr(err)
		}
	}
	if w.err == nil {
		var err error
		sp := w.trace.Begin(runtrace.PhaseCheckpointFsync, w.shard, w.epoch, -1)
		if w.metrics != nil {
			stop := w.metrics.FsyncSeconds.Time()
			err = w.f.Sync()
			stop()
		} else {
			err = w.f.Sync()
		}
		sp.End()
		w.err = ckptIOErr(err)
	}
	if err := w.f.Close(); w.err == nil {
		w.err = ckptIOErr(err)
	}
	w.releaseLocked()
	if w.err != nil {
		w.fsys.Remove(w.tmp)
		return w.err
	}
	if err := w.fsys.Rename(w.tmp, w.path); err != nil {
		w.fsys.Remove(w.tmp)
		return ckptIOErr(err)
	}
	if w.metrics != nil {
		w.metrics.CheckpointBytes.Add(w.bytes)
		w.metrics.CheckpointWrites.Inc()
	}
	return nil
}

// abort discards the partial file.
func (w *ckptWriter) abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f.Close()
	w.releaseLocked()
	w.fsys.Remove(w.tmp)
}

// ckptReader streams a cell's frames back. It verifies structure and CRCs
// as it goes and classifies every failure as exactly one of the three
// checkpoint errors.
type ckptReader struct {
	f      hostio.File
	br     *bufio.Reader
	buf    bytes.Buffer // the current frame's payload, reused frame to frame
	lim    io.LimitedReader
	hdr    [5]byte // the current frame's type and length, then its CRC
	a      arena   // what scan decodes device frames into
	Header fileHeader
}

// openCell opens a cell file and consumes the magic, version, and header
// frame; the reader streams through bufs' reader until Close. Missing
// files surface as fs.ErrNotExist (the sweep's "cell not done" signal,
// not a checkpoint error).
func openCell(fsys hostio.FS, path string, bufs *cellBufs) (*ckptReader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufs.br
	br.Reset(f)
	r := &ckptReader{f: f, br: br}
	if err := r.readPreamble(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// readPreamble consumes the magic, the version and the header frame.
func (r *ckptReader) readPreamble() error {
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(r.br, magic); err != nil {
		return fmt.Errorf("%w: short magic", ErrCheckpointTruncated)
	}
	if string(magic) != fileMagic {
		return fmt.Errorf("%w: bad file magic %q", ErrCheckpointCorrupt, magic)
	}
	var verBuf [4]byte
	if _, err := io.ReadFull(r.br, verBuf[:]); err != nil {
		return fmt.Errorf("%w: short version", ErrCheckpointTruncated)
	}
	if v := binary.LittleEndian.Uint32(verBuf[:]); v != ckptVersion {
		return fmt.Errorf("%w: file version %d, codec version %d", ErrCheckpointVersion, v, ckptVersion)
	}
	typ, payload, err := r.frame()
	if err != nil {
		return err
	}
	if typ != frameHeader {
		return fmt.Errorf("%w: first frame type %d, want header", ErrCheckpointCorrupt, typ)
	}
	c := codec{b: payload, dec: true}
	c.fileHeader(&r.Header)
	return c.done()
}

// Close closes the file and lets go of the read buffer; the reader must
// not be used afterwards.
func (r *ckptReader) Close() error {
	if r.br != nil {
		r.br.Reset(nil)
		r.br = nil
	}
	return r.f.Close()
}

// frame reads and CRC-checks the next frame. The payload it returns is
// valid until the next call: the decoders copy out everything they keep.
func (r *ckptReader) frame() (byte, []byte, error) {
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		return 0, nil, fmt.Errorf("%w: short frame header", ErrCheckpointTruncated)
	}
	typ := hdr[0]
	if typ != frameHeader && typ != frameDevice && typ != frameFooter {
		return 0, nil, fmt.Errorf("%w: unknown frame type %d", ErrCheckpointCorrupt, typ)
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	// Read incrementally rather than pre-allocating n bytes: a corrupt
	// length prefix in a short file must not drive a 4 GiB allocation
	// before ReadFull can notice the file ends early. The buffer grows
	// only as bytes arrive and keeps its capacity for the next frame.
	r.buf.Reset()
	r.lim = io.LimitedReader{R: r.br, N: int64(n)}
	if got, _ := r.buf.ReadFrom(&r.lim); got != int64(n) {
		return 0, nil, fmt.Errorf("%w: short frame payload", ErrCheckpointTruncated)
	}
	payload := r.buf.Bytes()
	crcBuf := r.hdr[:4]
	if _, err := io.ReadFull(r.br, crcBuf); err != nil {
		return 0, nil, fmt.Errorf("%w: short frame checksum", ErrCheckpointTruncated)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crcBuf); got != want {
		return 0, nil, fmt.Errorf("%w: frame checksum %08x, want %08x", ErrCheckpointCorrupt, got, want)
	}
	return typ, payload, nil
}

// scan walks the remaining frames: each device frame is decoded into the
// reader's arena and passed to dev, the state valid only until dev
// returns (dev may be nil to skip device payload decoding entirely — CRCs
// are still verified), and the footer ends the walk. The end marker must
// follow the footer exactly.
func (r *ckptReader) scan(dev func(*deviceState) error) (*epochFooter, error) {
	if dev == nil {
		return r.frames(nil)
	}
	return r.frames(func(payload []byte) error {
		st, err := decodeDevice(payload, &r.a)
		if err != nil {
			return err
		}
		return dev(st)
	})
}

// decodeDevice decodes one device frame's payload into a; the state is
// a's until a's next decode.
func decodeDevice(payload []byte, a *arena) (*deviceState, error) {
	a.reset()
	c := codec{b: payload, dec: true, a: a}
	c.deviceState(&a.dev)
	return &a.dev, c.done()
}

// frames is scan without the decoding: each device frame's CRC-checked
// payload goes to dev, valid only until dev returns.
func (r *ckptReader) frames(dev func(payload []byte) error) (*epochFooter, error) {
	for {
		typ, payload, err := r.frame()
		if err != nil {
			return nil, err
		}
		switch typ {
		case frameDevice:
			if dev == nil {
				continue
			}
			if err := dev(payload); err != nil {
				return nil, err
			}
		case frameFooter:
			ft := new(epochFooter)
			c := codec{b: payload, dec: true}
			c.footer(ft)
			if err := c.done(); err != nil {
				return nil, err
			}
			end := make([]byte, len(endMagic))
			if _, err := io.ReadFull(r.br, end); err != nil {
				return nil, fmt.Errorf("%w: missing end marker", ErrCheckpointTruncated)
			}
			if string(end) != endMagic {
				return nil, fmt.Errorf("%w: bad end marker %q", ErrCheckpointCorrupt, end)
			}
			if _, err := r.br.ReadByte(); err != io.EOF {
				return nil, fmt.Errorf("%w: data past end marker", ErrCheckpointCorrupt)
			}
			return ft, nil
		default:
			return nil, fmt.Errorf("%w: unexpected %d frame mid-file", ErrCheckpointCorrupt, typ)
		}
	}
}

// loadFooter opens a cell, verifies its identity against hdr's campaign
// identity fields (Seed, Devices, Days, Shard, Epoch — zero ranges in hdr
// are not checked), walks every frame for integrity, and returns the
// footer. It is the sweep's "is this cell done and mine" probe.
func loadFooter(fsys hostio.FS, path string, want fileHeader, bufs *cellBufs) (*epochFooter, error) {
	r, err := openCell(fsys, path, bufs)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	h := r.Header
	if h.Seed != want.Seed || h.Devices != want.Devices || h.Days != want.Days ||
		h.Shard != want.Shard || h.Epoch != want.Epoch {
		return nil, fmt.Errorf("%w: cell identity %+v, want %+v", ErrCheckpointCorrupt, h, want)
	}
	return r.scan(nil)
}

// cellUsable classifies a probe result for the sweep: a valid cell is
// reused, a missing or truncated one is recomputed, and version or
// corruption errors abort the campaign rather than silently recomputing
// over storage that is lying.
func cellUsable(ft *epochFooter, err error) (bool, error) {
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, ErrCheckpointTruncated):
		return false, nil
	default:
		return false, err
	}
}
