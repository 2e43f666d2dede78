package main

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"flashwear/internal/android"
	"flashwear/internal/blockdev"
	"flashwear/internal/device"
	"flashwear/internal/ecc"
	"flashwear/internal/fs"
	"flashwear/internal/fs/extfs"
	"flashwear/internal/fs/f2fs"
	"flashwear/internal/ftl"
	"flashwear/internal/nand"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
)

// The layers below device.New cannot be interposed (the stack is built
// inside it), so each is costed by a short direct probe through its public
// API: fixed work, repeated probeReps times, fastest repetition reported —
// the same reasoning as the fastest-of-K passes. The probes do not depend on
// the workload or the seed; every traced run prints them.
type probeSize struct {
	reps   int // repetitions; the fastest is reported
	shrink int // divides each probe's operation count (tests use > 1)
}

var defaultProbeSize = probeSize{reps: 5, shrink: 1}

type emitFunc func(name string, value float64, unit string)

// probeLayers runs every probe and emits its metrics. A probe that cannot
// build its stack is a bug in the benchmark, not a measurement: it panics.
func probeLayers(emit emitFunc, size probeSize) {
	probeNAND(emit, size)
	probeECC(emit, size)
	probeFTL(emit, size)
	probeDevice(emit, size)
	probeFS(emit, size, "extfs", android.FSExt4)
	probeFS(emit, size, "f2fs", android.FSF2FS)
	probeAndroid(emit, size)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench probe: %v", err))
	}
}

// organic lets through the failures a half-worn chip produces on its own —
// a failed erase or program, an uncorrectable or (after a failed program)
// unprogrammed read — and nothing else.
func organic(err error) {
	if errors.Is(err, nand.ErrEraseFail) || errors.Is(err, nand.ErrProgramFail) ||
		errors.Is(err, nand.ErrUncorrectable) || errors.Is(err, nand.ErrNotProgrammed) {
		return
	}
	must(err)
}

// least keeps the smallest positive duration per key over repetitions.
type least map[string]time.Duration

func (l least) add(key string, d time.Duration) {
	if old, ok := l[key]; !ok || d < old {
		l[key] = d
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// nsPer is d/n in nanoseconds.
func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// probeNAND: an MLC chip of 64 blocks x 64 pages x 4 KiB, pre-cycled to half
// its rated endurance (so the error model's exponentials are evaluated where
// they matter), then rounds of erase-all, program-all, read-all.
func probeNAND(emit emitFunc, size probeSize) {
	const (
		blocks, pages = 64, 64
		rated         = 200
	)
	rounds := max(1, 8/size.shrink)
	cfg := nand.Config{
		Geometry: nand.Geometry{Dies: 1, PlanesPerDie: 1, BlocksPerPlane: blocks, PagesPerBlock: pages, PageSize: 4096},
		Cell:     nand.MLC, RatedPE: rated, Seed: 11,
	}
	best := least{}
	var allocsPerProgram, stateKiB float64
	for rep := 0; rep < size.reps; rep++ {
		chip, err := nand.New(cfg)
		must(err)
		for b := 0; b < blocks; b++ {
			for i := 0; i < rated/2; i++ {
				_, err = chip.EraseBlock(b)
				organic(err)
			}
		}
		var program, read, erase time.Duration
		var programAllocs uint64
		for round := 0; round < rounds; round++ {
			t := time.Now()
			for b := 0; b < blocks; b++ {
				_, err = chip.EraseBlock(b)
				organic(err)
			}
			erase += time.Since(t)

			m0 := mallocs()
			t = time.Now()
			for b := 0; b < blocks; b++ {
				for p := 0; p < pages; p++ {
					_, err = chip.ProgramPageOOB(nand.PageAddr{Block: b, Page: p}, nil, nand.OOB{LP: int32(b*pages + p), Seq: int64(round*blocks*pages + b*pages + p + 1)})
					organic(err)
				}
			}
			program += time.Since(t)
			programAllocs += mallocs() - m0

			t = time.Now()
			for b := 0; b < blocks; b++ {
				for p := 0; p < pages; p++ {
					_, _, err = chip.ReadPage(nand.PageAddr{Block: b, Page: p})
					organic(err)
				}
			}
			read += time.Since(t)
		}
		best.add("program", program)
		best.add("read", read)
		best.add("erase", erase)
		allocsPerProgram = float64(programAllocs) / float64(rounds*blocks*pages)

		t := time.Now()
		st := chip.ExportState()
		best.add("export", time.Since(t))
		fresh, err := nand.New(cfg)
		must(err)
		t = time.Now()
		must(fresh.ImportState(st))
		best.add("import", time.Since(t))
		var size countWriter
		must(gob.NewEncoder(&size).Encode(st))
		stateKiB = float64(size) / 1024
	}
	emit("nand.program_ns", nsPer(best["program"], rounds*blocks*pages), "ns")
	emit("nand.read_ns", nsPer(best["read"], rounds*blocks*pages), "ns")
	emit("nand.erase_ns", nsPer(best["erase"], rounds*blocks), "ns")
	emit("nand.allocs_per_program", allocsPerProgram, "count")
	emit("nand.export_us_per_chip", float64(best["export"].Nanoseconds())/1e3, "us")
	emit("nand.import_us_per_chip", float64(best["import"].Nanoseconds())/1e3, "us")
	emit("nand.state_kib_per_chip", stateKiB, "KiB")
}

// countWriter counts the bytes written to it.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// probeECC: the bit-accurate Hamming sector codec over 4 KiB sectors.
func probeECC(emit emitFunc, size probeSize) {
	sectors := 256 / size.shrink // 1 MiB per repetition
	codec, err := ecc.NewSectorCodec(4096)
	must(err)
	data := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(data)
	parity, err := codec.EncodeSector(data)
	must(err)
	best := least{}
	for rep := 0; rep < size.reps; rep++ {
		t := time.Now()
		for i := 0; i < sectors; i++ {
			_, err = codec.EncodeSector(data)
		}
		best.add("encode", time.Since(t))
		must(err)
		t = time.Now()
		for i := 0; i < sectors; i++ {
			_, err = codec.DecodeSector(data, parity)
		}
		best.add("decode", time.Since(t))
		must(err)
	}
	mib := float64(sectors) * 4096 / (1 << 20)
	emit("ecc.encode_mib_per_s", mib/best["encode"].Seconds(), "MiB/s")
	emit("ecc.decode_mib_per_s", mib/best["decode"].Seconds(), "MiB/s")
}

// probeFTL: ftl.New over one MLC chip, accounting-only 4 KiB pages. Endurance
// is rated far beyond the probe's traffic so nothing retires mid-probe.
func probeFTL(emit emitFunc, size probeSize) {
	writes := 100_000 / size.shrink
	cfg := ftl.Config{MainChip: nand.Config{
		Geometry: nand.Geometry{Dies: 1, PlanesPerDie: 2, BlocksPerPlane: 128, PagesPerBlock: 64, PageSize: 4096},
		Cell:     nand.MLC, RatedPE: 100_000_000, Seed: 11,
	}}
	best := least{}
	var allocsPerWrite float64
	for rep := 0; rep < size.reps; rep++ {
		// Low utilisation: rewrites confined to 2.5% of the logical space,
		// the paper's attack footprint. GC finds fully dead blocks.
		f, err := ftl.New(cfg)
		must(err)
		rng := rand.New(rand.NewSource(5))
		hot := f.LogicalPages() / 40
		for lp := 0; lp < hot; lp++ {
			_, err = f.WritePage(lp, nil, 4096)
			must(err)
		}
		m0 := mallocs()
		t := time.Now()
		for i := 0; i < writes; i++ {
			_, err = f.WritePage(rng.Intn(hot), nil, 4096)
		}
		best.add("write", time.Since(t))
		must(err)
		allocsPerWrite = float64(mallocs()-m0) / float64(writes)

		// 90% utilisation, uniformly random overwrites: every collected
		// block still holds live pages to relocate.
		f, err = ftl.New(cfg)
		must(err)
		full := f.LogicalPages() * 9 / 10
		for lp := 0; lp < full; lp++ {
			_, err = f.WritePage(lp, nil, 4096)
			must(err)
		}
		for i := 0; i < writes/4; i++ { // reach GC steady state untimed
			_, err = f.WritePage(rng.Intn(full), nil, 4096)
			must(err)
		}
		t = time.Now()
		for i := 0; i < writes/2; i++ {
			_, err = f.WritePage(rng.Intn(full), nil, 4096)
		}
		best.add("write_gc90", time.Since(t))
		must(err)

		t = time.Now()
		for i := 0; i < writes; i++ {
			_, _, err = f.ReadPage(rng.Intn(full))
		}
		best.add("read", time.Since(t))
		must(err)

		// Remount of the populated chip: the OOB scan fleetd pays for
		// every device at every simulated day boundary.
		f.CutPower()
		t = time.Now()
		_, err = f.Recover()
		best.add("recover", time.Since(t))
		must(err)
	}
	emit("ftl.write_ns_per_page", nsPer(best["write"], writes), "ns")
	emit("ftl.write_gc90_ns_per_page", nsPer(best["write_gc90"], writes/2), "ns")
	emit("ftl.read_ns_per_page", nsPer(best["read"], writes), "ns")
	emit("ftl.allocs_per_write", allocsPerWrite, "count")
	emit("ftl.recover_ms", float64(best["recover"].Nanoseconds())/1e6, "ms")
}

// probeProfile is the device every stack probe is built on: the Moto E at
// the workloads' scale.
func probeProfile() device.Profile { return device.ProfileMotoE8().Scaled(512) }

// probeDevice: 4 KiB random accounting writes over 2.5% of a bare device,
// a flush every 64, all through the blockdev interposer.
func probeDevice(emit emitFunc, size probeSize) {
	writes := 40_000 / size.shrink
	best := least{}
	for rep := 0; rep < size.reps; rep++ {
		dev, err := device.New(probeProfile(), simclock.New())
		must(err)
		m := &meterDev{Inner: dev}
		rng := rand.New(rand.NewSource(5))
		slots := dev.Size() / 40 / 4096
		for i := 0; i < writes; i++ {
			must(m.WriteAccounted(rng.Int63n(slots)*4096, 4096))
			if i%64 == 63 {
				must(m.Flush())
			}
		}
		best.add("write", m.Writes.Busy)
		best.add("flush", m.Flushes.Busy)
	}
	emit("device.incl_ns_per_4k_write", nsPer(best["write"], writes), "ns")
	emit("device.flush_ns", nsPer(best["flush"], writes/64), "ns")
}

// mountOn formats and mounts a file system on dev the way the wear
// experiments do (payloads accounted, not retained).
func mountOn(dev blockdev.Device, kind android.FSKind) (fs.FileSystem, error) {
	opts := fs.Options{DataAccounting: true}
	if kind == android.FSF2FS {
		if err := f2fs.Mkfs(dev); err != nil {
			return nil, err
		}
		return f2fs.Mount(dev, opts)
	}
	if err := extfs.Mkfs(dev); err != nil {
		return nil, err
	}
	return extfs.Mount(dev, opts)
}

// fsProbeResult is what one file-system probe repetition measured.
type fsProbeResult struct {
	fsBusy, devBusy   time.Duration // inclusive time at the FS seam and at the device seam below it
	appBytes, devByte int64
	writes            int64
}

// fsProbe hand-mounts kind between the two interposers and runs the sync
// rewrites. Setup (file creation and fill) is excluded by snapshotting the
// tallies after it; Step's rewrites are what is left.
func fsProbe(kind android.FSKind, writes int) (fsProbeResult, error) {
	dev, err := device.New(probeProfile(), simclock.New())
	if err != nil {
		return fsProbeResult{}, err
	}
	md := &meterDev{Inner: dev}
	fsys, err := mountOn(md, kind)
	if err != nil {
		return fsProbeResult{}, err
	}
	mf := &meterSimFS{FileSystem: fsys}
	set := workload.NewFileSet(mf, "/wear", dev.Size()/160, 77)
	if err := set.Setup(); err != nil {
		return fsProbeResult{}, err
	}
	fs0, dev0, devBytes0, appBytes0 := mf.Writes.Busy+mf.Syncs.Busy, md.total().Busy, md.BytesWritten, mf.BytesWritten
	if _, err := set.Step(int64(writes) * 4096); err != nil {
		return fsProbeResult{}, err
	}
	return fsProbeResult{
		fsBusy:   mf.Writes.Busy + mf.Syncs.Busy - fs0,
		devBusy:  md.total().Busy - dev0,
		appBytes: mf.BytesWritten - appBytes0,
		devByte:  md.BytesWritten - devBytes0,
		writes:   int64(writes),
	}, nil
}

// probeFS reports a file system's self time per 4 KiB synchronous rewrite
// (time inside WriteAt+Sync minus time inside the device below) and the
// exact device bytes it issues per application byte.
func probeFS(emit emitFunc, size probeSize, name string, kind android.FSKind) {
	writes := 10_000 / size.shrink
	var bestSelf time.Duration
	var ratio float64
	for rep := 0; rep < size.reps; rep++ {
		r, err := fsProbe(kind, writes)
		must(err)
		if self := r.fsBusy - r.devBusy; rep == 0 || self < bestSelf {
			bestSelf = self
		}
		ratio = float64(r.devByte) / float64(r.appBytes)
	}
	emit(name+".self_ns_per_sync_write", nsPer(bestSelf, writes), "ns")
	emit(name+".dev_bytes_per_app_byte", ratio, "ratio")
}

// probeAndroid: the same rewrites through an installed app's sandboxed
// Storage() on a booted F2FS phone, inclusive of the sandbox's accounting,
// the monitors and everything below.
func probeAndroid(emit emitFunc, size probeSize) {
	writes := 10_000 / size.shrink
	var best time.Duration
	for rep := 0; rep < size.reps; rep++ {
		phone, err := android.NewPhone(android.Config{Profile: probeProfile(), FS: android.FSF2FS}, nil)
		must(err)
		app, err := phone.InstallApp("com.example.probe")
		must(err)
		mf := &meterSimFS{FileSystem: app.Storage()}
		set := workload.NewFileSet(mf, "/wear", phone.Device().Size()/160, 77)
		must(set.Setup())
		before := mf.Writes.Busy + mf.Syncs.Busy
		_, err = set.Step(int64(writes) * 4096)
		must(err)
		if d := mf.Writes.Busy + mf.Syncs.Busy - before; rep == 0 || d < best {
			best = d
		}
		if err := phone.Shutdown(); err != nil && !errors.Is(err, fs.ErrUnmounted) {
			must(err)
		}
	}
	emit("android.incl_ns_per_sync_write", nsPer(best, writes), "ns")
}
