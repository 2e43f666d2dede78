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

const ckptBufSize = 1 << 20

// A campaign opens a writer and a reader per cell and encodes a frame per
// device-day; the buffers behind them are recycled so that steady state
// allocates none of them.
var (
	encPool = sync.Pool{New: func() any { return new(enc) }}
	bwPool  = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, ckptBufSize) }}
	brPool  = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, ckptBufSize) }}
)

// getEnc returns an empty encode buffer; hand it back with encPool.Put
// once its bytes have been copied out.
func getEnc() *enc {
	e := encPool.Get().(*enc)
	e.b = e.b[:0]
	return e
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

func newCkptWriter(fsys hostio.FS, path string, hdr fileHeader) (*ckptWriter, error) {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, ckptIOErr(err)
	}
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, ckptIOErr(err)
	}
	bw := bwPool.Get().(*bufio.Writer)
	bw.Reset(f)
	w := &ckptWriter{fsys: fsys, f: f, bw: bw, path: path, tmp: tmp}
	w.bytes += int64(len(fileMagic)) + 4
	e := getEnc()
	defer encPool.Put(e)
	e.raw([]byte(fileMagic))
	e.u32(ckptVersion)
	w.bw.Write(e.b)
	e.b = e.b[:0]
	e.fileHeader(hdr)
	w.frameLocked(frameHeader, e.b)
	if w.err != nil {
		w.abort()
		return nil, w.err
	}
	return w, nil
}

// releaseLocked hands the write buffer back once the file is closed; the
// writer is finished or aborted and must not be written again.
func (w *ckptWriter) releaseLocked() {
	if w.bw != nil {
		w.bw.Reset(nil)
		bwPool.Put(w.bw)
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

// writeDevice appends one device-state frame. Safe for concurrent use;
// the record order in the file is whatever order workers finish in, which
// is fine because every consumer folds records commutatively.
func (w *ckptWriter) writeDevice(st *deviceState) error {
	e := getEnc()
	defer encPool.Put(e)
	e.deviceState(st)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frameLocked(frameDevice, e.b)
	return w.err
}

// finish appends the footer frame and the end marker, syncs, and renames
// the file into place. After finish returns nil the cell is durable. Any
// failure — including a failed sync or rename — removes the .tmp, so no
// error path leaves a stray temporary behind.
func (w *ckptWriter) finish(ft *epochFooter) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	e := getEnc()
	defer encPool.Put(e)
	e.footer(ft)
	w.frameLocked(frameFooter, e.b)
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
	Header fileHeader
}

// openCell opens a cell file and consumes the magic, version, and header
// frame. Missing files surface as fs.ErrNotExist (the sweep's "cell not
// done" signal, not a checkpoint error).
func openCell(fsys hostio.FS, path string) (*ckptReader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	br := brPool.Get().(*bufio.Reader)
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
	d := dec{b: payload}
	r.Header = d.fileHeader()
	return d.done()
}

// Close closes the file and recycles the read buffer; the reader must not
// be used afterwards.
func (r *ckptReader) Close() error {
	if r.br != nil {
		r.br.Reset(nil)
		brPool.Put(r.br)
		r.br = nil
	}
	return r.f.Close()
}

// frame reads and CRC-checks the next frame. The payload it returns is
// valid until the next call: the decoders copy out everything they keep.
func (r *ckptReader) frame() (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
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
	if _, err := io.CopyN(&r.buf, r.br, int64(n)); err != nil {
		return 0, nil, fmt.Errorf("%w: short frame payload", ErrCheckpointTruncated)
	}
	payload := r.buf.Bytes()
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: short frame checksum", ErrCheckpointTruncated)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return 0, nil, fmt.Errorf("%w: frame checksum %08x, want %08x", ErrCheckpointCorrupt, got, want)
	}
	return typ, payload, nil
}

// scan walks the remaining frames: each device frame is decoded and
// passed to dev (which may be nil to skip device payload decoding
// entirely — CRCs are still verified), and the footer ends the walk. The
// end marker must follow the footer exactly.
func (r *ckptReader) scan(dev func(*deviceState) error) (*epochFooter, error) {
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
			d := dec{b: payload}
			st := d.deviceState()
			if err := d.done(); err != nil {
				return nil, err
			}
			if err := dev(st); err != nil {
				return nil, err
			}
		case frameFooter:
			d := dec{b: payload}
			ft := d.footer()
			if err := d.done(); err != nil {
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
func loadFooter(fsys hostio.FS, path string, want fileHeader) (*epochFooter, error) {
	r, err := openCell(fsys, path)
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
