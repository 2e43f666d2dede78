package device

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"flashwear/internal/blockdev"
	"flashwear/internal/faultinject"
	"flashwear/internal/ftl"
	"flashwear/internal/nand"
	"flashwear/internal/simclock"
	"flashwear/internal/wtrace"
)

// ErrBricked is returned once the device has failed permanently.
var ErrBricked = errors.New("device: bricked")

// ErrReadOnly is returned for writes once the device has retired into
// JEDEC-style read-only end-of-life mode; reads still succeed.
var ErrReadOnly = errors.New("device: read-only (end of life)")

// ErrPowerLoss is returned after a simulated power cut until PowerCycle
// remounts the device.
var ErrPowerLoss = errors.New("device: power lost")

// Device is a complete simulated storage device: FTL + chips + controller
// timing. It implements blockdev.Device and advances the simulated clock by
// each request's service time, so elapsed simulated time divided into bytes
// moved gives the bandwidths of Figure 1 and the hours of Figure 3/Table 1.
type Device struct {
	prof  Profile
	tm    nand.Timing // prof.timing(), which serviceTime needs per request
	f     *ftl.FTL
	clock *simclock.Clock
	rng   *rand.Rand
	inj   *faultinject.Injector // nil unless the profile carries a fault plan

	pageSize int
	sector   int
	busy     time.Duration

	// Block-mapped (MicroSD) append tracking per allocation unit.
	auAppend map[int64]int64

	// tr is the optional wear-attribution tracer (nil = tracing off).
	tr *wtrace.Tracer

	bytesWritten int64
	bytesRead    int64
}

// New builds a device from a profile on the given clock.
func New(prof Profile, clock *simclock.Clock) (*Device, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		clock = simclock.New()
	}
	now := clock.Now
	mainCfg := nand.Config{
		Geometry: prof.geometry(prof.CapacityBytes),
		Cell:     prof.Cell,
		RatedPE:  prof.RatedPE,
		Seed:     prof.Seed,
		Now:      now,
	}
	t := prof.timing()
	mainCfg.Timing = &t
	if prof.HealPerIdleHour > 0 {
		em := nand.DefaultErrorModel()
		em.HealPerIdleHour = prof.HealPerIdleHour
		mainCfg.Errors = &em
	}
	// One injector spans every chip in the package: the op counter and
	// the power rail are per-device, not per-die.
	var inj *faultinject.Injector
	if prof.Faults != nil && !prof.Faults.Empty() {
		inj = faultinject.New(*prof.Faults, now)
		mainCfg.Inject = inj
	}
	fcfg := ftl.Config{
		MainChip:        mainCfg,
		OverProvision:   prof.OverProvision,
		FirmwareRatedPE: prof.FirmwareRatedPE,
		NoWearLeveling:  !prof.WearLeveling,
		BrickAtEOL:      prof.BrickAtEOL,
	}
	if prof.Hybrid != nil {
		h := prof.Hybrid
		cacheTiming := nand.DefaultTiming(nand.SLC)
		fcfg.Hybrid = &ftl.HybridConfig{
			CacheChip: nand.Config{
				Geometry: cacheGeometry(prof, h.CacheBytes),
				Cell:     nand.SLC,
				RatedPE:  h.CacheRatedPE,
				Seed:     prof.Seed + 1,
				Now:      now,
				Timing:   &cacheTiming,
			},
			DrainRatio:       h.DrainRatio,
			MergeUtilisation: h.MergeUtilisation,
		}
		if inj != nil {
			fcfg.Hybrid.CacheChip.Inject = inj
		}
	}
	f, err := ftl.New(fcfg)
	if err != nil {
		return nil, fmt.Errorf("device %s: %w", prof.Name, err)
	}
	return &Device{
		prof:     prof,
		tm:       t,
		f:        f,
		clock:    clock,
		rng:      rand.New(rand.NewSource(prof.Seed + 7)),
		inj:      inj,
		pageSize: f.PageSize(),
		sector:   512,
		auAppend: make(map[int64]int64),
	}, nil
}

// cacheGeometry derives the Type A chip geometry.
func cacheGeometry(p Profile, capBytes int64) nand.Geometry {
	blockBytes := int64(p.PageSize) * int64(p.PagesPerBlock)
	blocks := int(capBytes / blockBytes)
	if blocks < 4 {
		blocks = 4
	}
	return nand.Geometry{
		Dies: 1, PlanesPerDie: 1, BlocksPerPlane: blocks,
		PagesPerBlock: p.PagesPerBlock, PageSize: p.PageSize, SpareSize: p.PageSize / 32,
	}
}

// Profile returns the device's profile.
func (d *Device) Profile() Profile { return d.prof }

// FTL exposes the translation layer for wear inspection.
func (d *Device) FTL() *ftl.FTL { return d.f }

// Clock returns the device's simulated clock.
func (d *Device) Clock() *simclock.Clock { return d.clock }

// EnableWearTrace attaches a wear-attribution tracer to the device stack
// (nil detaches). Like telemetry, it should attach at device birth —
// before mkfs — so attribution state starts alongside the flash state.
// The tracer's event clock is wired to the device's simulated clock.
func (d *Device) EnableWearTrace(tr *wtrace.Tracer) {
	d.tr = tr
	if tr != nil {
		tr.Now = d.clock.Now
	}
	d.f.SetTracer(tr)
}

// WearTracer returns the attached tracer, or nil.
func (d *Device) WearTracer() *wtrace.Tracer { return d.tr }

// Size implements blockdev.Device; it reports the exported capacity.
func (d *Device) Size() int64 { return d.f.Capacity() }

// SectorSize implements blockdev.Device.
func (d *Device) SectorSize() int { return d.sector }

// Bricked reports whether the device has failed permanently.
func (d *Device) Bricked() bool { return d.f.Bricked() }

// ReadOnly reports whether the device has retired into read-only EOL mode.
func (d *Device) ReadOnly() bool { return d.f.ReadOnly() }

// Failed reports whether the device can no longer accept writes, whether
// by graceful read-only retirement or a hard brick.
func (d *Device) Failed() bool { return d.f.Failed() }

// PowerLost reports whether the device is sitting unpowered after a cut.
func (d *Device) PowerLost() bool { return d.f.PowerLost() }

// Injector exposes the fault injector, or nil when no plan is attached.
func (d *Device) Injector() *faultinject.Injector { return d.inj }

// CutPower drops the device's power between operations: any fault plan's
// injector latches down, and every volatile FTL structure is garbage until
// PowerCycle. Works with or without a fault plan.
func (d *Device) CutPower() {
	if d.inj != nil {
		d.inj.CutNow()
	}
	d.f.CutPower()
}

// PowerCycle restores power and remounts: the FTL rebuilds its mapping
// from per-page OOB metadata, and controller-volatile state (the MicroSD
// append trackers) resets. The recovery scan's flash reads advance the
// simulated clock like any other work.
func (d *Device) PowerCycle() error {
	if d.inj != nil {
		d.inj.PowerRestored()
	}
	cost, err := d.f.Recover()
	d.advance(cost, 0)
	d.auAppend = make(map[int64]int64)
	return err
}

// mapErr translates FTL failure modes into the device-level errors,
// keeping the cause wrapped so errors.Is finds both layers.
func (d *Device) mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ftl.ErrBricked):
		return fmt.Errorf("%w: %s: %w", ErrBricked, d.prof.Name, err)
	case errors.Is(err, ftl.ErrReadOnly):
		return fmt.Errorf("%w: %s: %w", ErrReadOnly, d.prof.Name, err)
	case errors.Is(err, ftl.ErrPowerLoss):
		return fmt.Errorf("%w: %s: %w", ErrPowerLoss, d.prof.Name, err)
	}
	return err
}

// BytesWritten returns total host bytes written to the device.
func (d *Device) BytesWritten() int64 { return d.bytesWritten }

// BytesRead returns total host bytes read.
func (d *Device) BytesRead() int64 { return d.bytesRead }

// BusyTime returns the cumulative service time of all requests.
func (d *Device) BusyTime() time.Duration { return d.busy }

// RestoreCounters overwrites the device's cumulative I/O counters — the
// checkpoint-resume path re-creates the device stack from chip state, and
// the fresh stack must keep reporting lifetime totals, not totals since
// the resume.
func (d *Device) RestoreCounters(bytesWritten, bytesRead int64, busy time.Duration) {
	d.bytesWritten = bytesWritten
	d.bytesRead = bytesRead
	d.busy = busy
}

// WearIndicator reads the JEDEC life-time estimate register for a pool. On
// profiles flagged UnreliableIndicator (the BLU phones) it returns an
// arbitrary stuck-or-garbage value, like the real parts did.
func (d *Device) WearIndicator(pool ftl.PoolID) int {
	if d.prof.UnreliableIndicator {
		// Garbage: some parts return 0, some a random constant.
		return int(d.rng.Int31n(13)) // 0..12, often out of spec
	}
	return d.f.WearIndicator(pool)
}

// PreEOLInfo reads the JEDEC PRE_EOL_INFO register (1=normal, 2=warning,
// 3=urgent), subject to the same unreliability flag.
func (d *Device) PreEOLInfo() int {
	if d.prof.UnreliableIndicator {
		return 0 // out-of-spec "not defined"
	}
	return d.f.PreEOLInfo()
}

// WearHistogram buckets the main pool's per-block wear into the given
// number of equal-width bins over [0, maxWear], with maxWear the worst
// block observed. It is the analysis view behind the wear-leveling
// ablation: a healthy FTL concentrates blocks near the top bin (everyone
// equally worn); a broken one spreads them out.
func (d *Device) WearHistogram(bins int) []int {
	if bins < 1 {
		bins = 1
	}
	chip := d.f.MainChip()
	blocks := chip.Geometry().Blocks()
	maxW := chip.MaxWear()
	h := make([]int, bins)
	if maxW <= 0 {
		h[0] = blocks
		return h
	}
	for b := 0; b < blocks; b++ {
		idx := int(chip.Wear(b) / maxW * float64(bins))
		if idx >= bins {
			idx = bins - 1
		}
		h[idx]++
	}
	return h
}

// serviceTime converts raw flash work plus a transfer into request latency.
// Sustained pipelining spreads page operations across the controller's
// parallel planes, and the host transfer overlaps the flash work (the
// controller streams into its page buffers), so the slower of the two
// dominates — which is what lets Figure 1's curves plateau at
// min(interface, array) bandwidth.
func (d *Device) serviceTime(cost ftl.Cost, transfer int64) time.Duration {
	t := &d.tm
	w := time.Duration(d.prof.Parallelism)
	xfer := time.Duration(float64(transfer) / (d.prof.InterfaceMBps * 1e6) * float64(time.Second))
	flash := time.Duration(cost.Programs)*t.ProgramPage/w +
		time.Duration(cost.Reads)*t.ReadPage/w +
		time.Duration(cost.Erases)*t.EraseBlock/w
	svc := d.prof.CmdOverhead
	if xfer > flash {
		svc += xfer
	} else {
		svc += flash
	}
	return svc
}

func (d *Device) advance(cost ftl.Cost, transfer int64) {
	svc := d.serviceTime(cost, transfer)
	d.busy += svc
	d.clock.Advance(svc)
}

// pageRange returns the first page, last page (inclusive) of a byte range.
func (d *Device) pageRange(off, length int64) (first, last int64) {
	return off / int64(d.pageSize), (off + length - 1) / int64(d.pageSize)
}

// ReadAt implements blockdev.Device.
func (d *Device) ReadAt(p []byte, off int64) error {
	if err := blockdev.CheckRange(d, off, int64(len(p))); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	var total ftl.Cost
	first, last := d.pageRange(off, int64(len(p)))
	for pg := first; pg <= last; pg++ {
		data, cost, err := d.f.ReadPage(int(pg))
		total.Add(cost)
		if err != nil {
			d.advance(total, 0)
			return d.mapErr(err)
		}
		pageStart := pg * int64(d.pageSize)
		from := max64(off, pageStart)
		to := min64(off+int64(len(p)), pageStart+int64(d.pageSize))
		dst := p[from-off : to-off]
		if data == nil {
			clear(dst)
		} else {
			copy(dst, data[from-pageStart:to-pageStart])
		}
	}
	d.bytesRead += int64(len(p))
	d.advance(total, int64(len(p)))
	return nil
}

// WriteAt implements blockdev.Device.
func (d *Device) WriteAt(p []byte, off int64) error {
	return d.write(off, int64(len(p)), p)
}

// WriteAccounted implements blockdev.Device.
func (d *Device) WriteAccounted(off, length int64) error {
	return d.write(off, length, nil)
}

func (d *Device) write(off, length int64, payload []byte) error {
	if err := blockdev.CheckRange(d, off, length); err != nil {
		return err
	}
	if length == 0 {
		return nil
	}
	switch {
	case d.f.Bricked():
		return fmt.Errorf("%w: %s", ErrBricked, d.prof.Name)
	case d.f.ReadOnly():
		return fmt.Errorf("%w: %s", ErrReadOnly, d.prof.Name)
	}
	var total ftl.Cost
	// Block-mapped MicroSD penalty: a write that is not appending within
	// its allocation unit costs a whole-AU copy (read+program of every
	// page in the AU). This is controller time, not array wear, and it is
	// why Figure 1b's uSD random-write curve collapses.
	if d.prof.AllocationUnit > 0 {
		total.Add(d.usdPenalty(off, length))
	}

	var evStart time.Duration
	if d.tr != nil && d.tr.EventsEnabled() {
		evStart = d.clock.Now()
	}
	reqBytes := int(length)
	first, last := d.pageRange(off, length)
	for pg := first; pg <= last; pg++ {
		pageStart := pg * int64(d.pageSize)
		from := max64(off, pageStart)
		to := min64(off+length, pageStart+int64(d.pageSize))
		full := from == pageStart && to == pageStart+int64(d.pageSize)

		var data []byte
		if !full {
			// Read-modify-write of a partial page.
			old, cost, err := d.f.ReadPage(int(pg))
			total.Add(cost)
			if err != nil {
				d.advance(total, 0)
				return d.mapErr(err)
			}
			if payload != nil {
				data = make([]byte, d.pageSize)
				if old != nil {
					copy(data, old)
				}
				copy(data[from-pageStart:], payload[from-off:to-off])
			}
		} else if payload != nil {
			data = payload[from-off : to-off]
		}
		cost, err := d.f.WritePage(int(pg), data, reqBytes)
		total.Add(cost)
		if err != nil {
			d.advance(total, 0)
			return d.mapErr(err)
		}
	}
	d.bytesWritten += length
	d.advance(total, length)
	if d.tr != nil {
		d.tr.EventHostWrite(off, length, evStart, d.clock.Now()-evStart)
	}
	return nil
}

// usdPenalty models the SD controller's allocation-unit copy for
// non-appending writes. It returns extra (time-only) cost.
func (d *Device) usdPenalty(off, length int64) ftl.Cost {
	au := d.prof.AllocationUnit
	var extra ftl.Cost
	auPages := int(au / int64(d.pageSize))
	for cur := off; cur < off+length; {
		auIdx := cur / au
		expect, seen := d.auAppend[auIdx]
		if !seen {
			expect = auIdx * au // fresh AU: appending from its start
		}
		end := min64((auIdx+1)*au, off+length)
		if cur != expect {
			extra.Reads += auPages
			extra.Programs += auPages
		}
		d.auAppend[auIdx] = end
		cur = end
	}
	return extra
}

// Discard implements blockdev.Device.
func (d *Device) Discard(off, length int64) error {
	if err := blockdev.CheckRange(d, off, length); err != nil {
		return err
	}
	var total ftl.Cost
	first, last := d.pageRange(off, length)
	for pg := first; pg <= last; pg++ {
		pageStart := pg * int64(d.pageSize)
		if pageStart < off || pageStart+int64(d.pageSize) > off+length {
			continue // partial pages are not discarded
		}
		cost, err := d.f.TrimPage(int(pg))
		total.Add(cost)
		if err != nil {
			d.advance(total, 0)
			return d.mapErr(err)
		}
	}
	d.advance(total, 0)
	return nil
}

// Sanitize performs a whole-device secure erase — the factory-reset path.
// It consumes one P/E cycle per block and, per the paper's argument about
// permanently-consumable resources, restores none of the device's life.
func (d *Device) Sanitize() error {
	cost, err := d.f.Sanitize()
	d.advance(cost, 0)
	d.auAppend = make(map[int64]int64)
	return d.mapErr(err)
}

// Flush implements blockdev.Device.
func (d *Device) Flush() error {
	cost, err := d.f.Flush()
	d.advance(cost, 0)
	return d.mapErr(err)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
