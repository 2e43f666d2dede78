package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"flashwear/internal/android"
	"flashwear/internal/blockdev"
	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/fleet"
	"flashwear/internal/fleetd"
	"flashwear/internal/ftl"
	"flashwear/internal/hostio"
	"flashwear/internal/nand"
	"flashwear/internal/runtrace"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
)

// defaultSeed is the seed bench/expected.json is committed for. Every
// generated input is the repository's canonical value plus (seed -
// defaultSeed), so the default seed reproduces the paper exhibits exactly
// (Table 1's writer seeds 7 and 100+i, the profiles' own seeds).
const defaultSeed = 1

// sizes is the fixed work of one pass of each workload. The defaults are
// sized so one pass takes 0.4-1.3 s on a 2-core host (README.md, "Workloads");
// tests pass tiny ones.
type sizes struct {
	ChipScale int64 `json:"chip_scale"` // chip_table1: capacity divisor of the eMMC 16GB
	ChipLevel int   `json:"chip_level"` // chip_table1: run the Table 1 phases to this Type B level

	PhoneScale int64   `json:"phone_scale"` // phone_f2fs: capacity divisor of the Moto E 8GB
	PhoneDays  float64 `json:"phone_days"`  // phone_f2fs: attack deadline in full-scale simulated days

	FleetDevices int     `json:"fleet_devices"`
	FleetDays    float64 `json:"fleet_days"`
	FleetScale   int64   `json:"fleet_scale"`

	CampaignDevices int   `json:"campaign_devices"`
	CampaignDays    int   `json:"campaign_days"`
	CampaignScale   int64 `json:"campaign_scale"`
}

var defaultSizes = sizes{
	ChipScale: 1024, ChipLevel: 10,
	PhoneScale: 512, PhoneDays: 2.1,
	FleetDevices: 48, FleetDays: 2, FleetScale: 4096,
	CampaignDevices: 32, CampaignDays: 10, CampaignScale: 4096,
}

// warmup is the reduced work of set-up's warm-up pass: the same stacks, built
// the same way, run just far enough to touch what a timed pass touches, so
// that first-use costs are paid in set-up. A whole pass would make setup_s, a
// single sample per run, a second and noisier copy of the pass time; reduced,
// the steady reference kernel is most of it.
func (s sizes) warmup() sizes {
	s.ChipLevel = min(s.ChipLevel, 2)
	s.PhoneDays /= 16
	s.FleetDays /= 8 // every device: which ones are heavy depends on the seed
	s.CampaignDays = 1
	return s
}

// simProcs is GOMAXPROCS for every timed pass. The two vCPUs of the hosts
// this runs on share a core: with both in use the same pass takes 20-30%
// longer, burns 40% more CPU time and varies twice as much from pass to pass
// (the runtime's GC workers land on the sibling and slow the simulation
// thread), and a fleet's wall time comes to depend on where its few heavy
// devices fall in the index order. On one P a pass costs the sum of its work,
// whatever the schedule. The second core is costed apart, by the traced
// run's extra two-P pass (fleet.scaling_eff).
const simProcs = 1

// simWorkers is the fleets' Workers: the closed loop is this one process
// with at most two simulation workers, sharing the one P.
const simWorkers = 2

// passEnv is what one pass of a workload receives: the generated inputs
// (seed, sizes), where it may write, and the tracing switches.
type passEnv struct {
	seed int64
	size sizes
	// rootSeed is the fleet root seed prepare picked for seed (fleet
	// workloads only).
	rootSeed int64
	dir      string // private scratch directory of this pass, removed by the caller

	// variant is which kind of pass this is (main.go, "Pass variants"): the
	// A/B variants switch one of the program's own tracers.
	variant string
	// span is the pass's parent span, set on traced passes only. With it a
	// pass also wraps the seams it can reach (blockdev under the
	// DeviceWriter, hostio under fleetd) in the timing interposers. All span
	// methods accept nil.
	span *Span
}

// passResult is what a pass hands back: the verification fingerprint, the
// simulated work it completed, and the exact sim-domain counters the
// per-layer metrics are derived from.
type passResult struct {
	fingerprint string
	// deviceDays is the simulated full-scale device-days the pass
	// completed; one device-day is one benchmark operation.
	deviceDays float64

	// FTL/NAND counters of the device under test (chip_table1 and
	// phone_f2fs only; fleets build their devices internally).
	ftl       ftl.Stats
	gcCopies  int64
	nandBytes int64

	// core: mean full-scale host GiB per Type B indicator increment over
	// the increments comparable to the paper's reference.
	hostGiBPerIncrement float64

	// campaign_ckpt only.
	phases        [runtrace.NumPhases]runtrace.PhaseTotal
	resumeSeconds float64
	cellsReused   int64
	cells         int64 // shards x epochs
	epochs        int64
	hostio        *meterFS
	bricked       int64
}

type workloadDef struct {
	name string
	why  string
	// prepare generates the inputs that are searched for rather than
	// computed (a fleet's root seed); it runs once per run, in set-up. Nil
	// for workloads whose inputs are the seed itself.
	prepare func(seed int64, size sizes) (rootSeed int64, err error)
	run     func(env passEnv) (passResult, error)
	// abVariant is the pass variant a traced run alternates with the
	// traced and plain passes to cost one of the program's own tracers.
	abVariant string
	// scaling adds the traced run's extra pass on two Ps.
	scaling bool
}

var workloads = []workloadDef{
	{name: "chip_table1", why: "bare hybrid eMMC through the eight Table 1 phases: ftl+nand GC, cache drain and relocation reads; no FS, fleet or codec code runs", run: runChipTable1},
	{name: "phone_f2fs", why: "the attack app on a Moto E with F2FS: log-structured appends at under 3% utilisation on a single-pool device; fs/f2fs and the android sandbox do most of the work", run: runPhoneF2FS},
	{name: "fleet_batch", why: "fleet.Run over extfs with always-on devices: the batch engine, pacer, sampler and mergeable aggregates; no fleetd, codec or hostio",
		prepare: prepareFleetBatch, run: runFleetBatch, abVariant: variantNoWearTrace, scaling: true},
	{name: "campaign_ckpt", why: "a fleetd campaign with an attack phone that bricks, checkpointed every simulated day, then re-adopted cold and resumed: nightly canonicalisation, cell encode and decode, frozen carry, hostio, journal",
		prepare: prepareCampaignCkpt, run: runCampaignCkpt, abVariant: variantRuntrace},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// fingerprintOf hashes the canonical JSON of a pass's sim-domain outcome.
// encoding/json renders floats in their shortest round-trip form and sorts
// map keys, so equal values give equal bytes.
func fingerprintOf(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// incrementPrint is one wear-indicator step as the fingerprint sees it.
type incrementPrint struct {
	Pool     string
	From, To int
	HostGiB  float64
	Hours    float64
}

func printIncrements(incs []core.Increment) []incrementPrint {
	out := make([]incrementPrint, len(incs))
	for i, inc := range incs {
		out[i] = incrementPrint{inc.Pool.String(), inc.FromLevel, inc.ToLevel, inc.HostGiB, inc.Hours}
	}
	return out
}

// devicePrint is the sim-domain end state of one device stack.
type devicePrint struct {
	Increments []incrementPrint
	FTL        ftl.Stats
	GCCopies   int64
	Main       nand.Stats
	Cache      *nand.Stats
	Bricked    bool
	ReadOnly   bool
}

func printDevice(dev *device.Device, incs []core.Increment) devicePrint {
	p := devicePrint{
		Increments: printIncrements(incs),
		FTL:        dev.FTL().Stats(),
		GCCopies:   dev.FTL().GCCopies(),
		Main:       dev.FTL().MainChip().Stats(),
		Bricked:    dev.Bricked(),
		ReadOnly:   dev.ReadOnly(),
	}
	if c := dev.FTL().CacheChip(); c != nil {
		st := c.Stats()
		p.Cache = &st
	}
	return p
}

// deviceCounters copies the FTL/NAND counters the ftl.* ratio metrics use.
func (r *passResult) deviceCounters(dev *device.Device) {
	r.ftl = dev.FTL().Stats()
	// Stats().GCCopies is never filled in; the counter is its own method.
	r.gcCopies = dev.FTL().GCCopies()
	r.nandBytes = dev.FTL().MainChip().Stats().BytesProgrammed
	if c := dev.FTL().CacheChip(); c != nil {
		r.nandBytes += c.Stats().BytesProgrammed
	}
}

// meanTypeB averages full-scale host GiB per Type B increment.
func meanTypeB(incs []core.Increment, keep func(core.Increment) bool) float64 {
	var sum float64
	var n int
	for _, inc := range incs {
		if inc.Pool == ftl.PoolB && keep(inc) {
			sum += inc.HostGiB
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// table1Phase is one row of the Table 1 schedule.
type table1Phase struct {
	pattern   string
	reqBytes  int64
	seq       bool
	util      float64
	rewriting bool // aim at the utilised space instead of free space
	untilB    int
}

// table1Phases is experiments.Table1's schedule. It is rebuilt here, from
// the same public pieces, so the writer and profile seeds are arguments;
// TestChipTable1MatchesExhibit pins it to the exhibit.
var table1Phases = []table1Phase{
	{"4 KiB rand", 4096, false, 0, false, 2},
	{"4 KiB rand", 4096, false, 0, false, 3},
	{"128 KiB seq", 128 << 10, true, 0, false, 4},
	{"128 KiB seq", 128 << 10, true, 0, false, 5},
	{"4 KiB rand", 4096, false, 0, false, 6},
	{"4 KiB rand", 4096, false, 0.90, false, 7},
	{"4 KiB rand", 4096, false, 0.50, false, 8},
	{"4 KiB rand rewrite", 4096, false, 0.90, true, 10},
}

// chipTable1 drives the Table 1 phases on a bare device and returns the
// report with the device it ran on.
func chipTable1(env passEnv) (core.RunReport, *device.Device, error) {
	delta := env.seed - defaultSeed
	prof := device.ProfileEMMC16()
	prof.Seed += delta
	clock := simclock.New()

	sp := env.span.Start("device.New")
	dev, err := device.New(prof.Scaled(env.size.ChipScale), clock)
	sp.End()
	if err != nil {
		return core.RunReport{}, nil, err
	}
	var target blockdev.Device = dev
	var meter *meterDev
	if env.span != nil {
		meter = &meterDev{Inner: dev}
		target = meter
	}
	runner := core.NewRunner(dev, clock, prof.EffectiveScale(env.size.ChipScale))

	hotSpan := dev.Size() / 40
	var filled int64
	fillTo := func(frac float64) error {
		want := int64(float64(dev.Size())*frac) &^ 4095
		if want > filled {
			w := workload.NewDeviceWriter(target, 1<<20, true, 7+delta)
			w.RegionOff = filled
			w.RegionLen = want - filled
			if w.RegionLen >= 1<<20 {
				if _, err := w.Step(want - filled); err != nil {
					return err
				}
			}
		} else if want < filled {
			if err := target.Discard(want, filled-want); err != nil {
				return err
			}
		}
		filled = want
		return nil
	}

	for i, ph := range table1Phases {
		if env.size.ChipLevel < ph.untilB {
			break
		}
		sp := env.span.Start(fmt.Sprintf("core.RunPhase %d: %s @ %.0f%%", i+1, ph.pattern, ph.util*100))
		before := meter.total()
		if err := fillTo(ph.util); err != nil {
			return core.RunReport{}, nil, fmt.Errorf("phase %d fill: %w", i+1, err)
		}
		w := workload.NewDeviceWriter(target, ph.reqBytes, ph.seq, int64(100+i)+delta)
		if ph.rewriting {
			w.RegionOff, w.RegionLen = 0, filled
		} else {
			w.RegionOff, w.RegionLen = filled, hotSpan
			if w.RegionOff+w.RegionLen > dev.Size() {
				w.RegionLen = dev.Size() - w.RegionOff
			}
		}
		runner.Pattern = ph.pattern
		runner.SpaceUtil = ph.util
		err := runner.RunPhase(w.Step, 0, runner.UntilLevel(ftl.PoolB, ph.untilB))
		calls, busy := meter.since(before)
		sp.Charge("device (blockdev interposer, incl. ftl+nand)", calls, busy)
		sp.End()
		if err != nil {
			return core.RunReport{}, nil, fmt.Errorf("phase %d: %w", i+1, err)
		}
		if dev.Failed() {
			break
		}
	}
	return runner.Report(), dev, nil
}

func runChipTable1(env passEnv) (passResult, error) {
	rep, dev, err := chipTable1(env)
	if err != nil {
		return passResult{}, fmt.Errorf("chip_table1: %w", err)
	}
	res := passResult{deviceDays: rep.TotalHours / 24}
	res.deviceCounters(dev)
	// The paper's 2210 GiB reference is the 4 KiB random phases at 0%.
	res.hostGiBPerIncrement = meanTypeB(rep.Increments, func(inc core.Increment) bool {
		return inc.Pattern == "4 KiB rand" && inc.SpaceUtil == 0
	})
	res.fingerprint, err = fingerprintOf(printDevice(dev, rep.Increments))
	return res, err
}

func runPhoneF2FS(env passEnv) (passResult, error) {
	prof := device.ProfileMotoE8()
	prof.Seed += env.seed - defaultSeed
	eff := prof.EffectiveScale(env.size.PhoneScale)

	clock := simclock.New()
	sp := env.span.Start("android.NewPhone (device.New + mkfs.f2fs + mount)")
	phone, err := android.NewPhone(android.Config{Profile: prof.Scaled(env.size.PhoneScale), FS: android.FSF2FS}, clock)
	sp.End()
	if err != nil {
		return passResult{}, fmt.Errorf("phone_f2fs: %w", err)
	}
	sp = env.span.Start("android.InstallApp")
	app, err := phone.InstallApp("com.example.wear")
	sp.End()
	if err != nil {
		return passResult{}, fmt.Errorf("phone_f2fs: %w", err)
	}
	// The deadline is in scaled simulated time, like every clock reading.
	maxSim := time.Duration(env.size.PhoneDays * 24 * float64(time.Hour) / float64(eff))
	attack := core.NewAttack(app, core.Continuous, eff)
	// The app's rewrite offsets come from a seed fixed inside core, and the
	// profile seed only decides rare failures; the input that varies is the
	// size of the app's four files, the paper's 100 MB plus 0-7 requests, which
	// re-maps every offset drawn.
	attack.FileSize += ((env.seed - defaultSeed) & 7) * attack.ReqBytes
	sp = env.span.Start("core.Attack.Run")
	rep, err := attack.Run(phone, maxSim)
	sp.End()
	if err != nil {
		return passResult{}, fmt.Errorf("phone_f2fs: %w", err)
	}
	dev := phone.Device()
	res := passResult{deviceDays: rep.Hours / 24}
	res.deviceCounters(dev)
	res.hostGiBPerIncrement = meanTypeB(rep.Increments, func(core.Increment) bool { return true })
	res.fingerprint, err = fingerprintOf(struct {
		Device  devicePrint
		HostGiB float64
		Hours   float64
	}{printDevice(dev, rep.Increments), rep.HostGiB, rep.ActiveHours})
	if err != nil {
		return passResult{}, err
	}
	if err := phone.Shutdown(); err != nil && !dev.Failed() {
		return passResult{}, fmt.Errorf("phone_f2fs: shutdown: %w", err)
	}
	return res, nil
}

// fleetBatchSpec is fleet_batch's population: two phone models, 90/5/5
// benign/buggy/attack.
func fleetBatchSpec(size sizes) fleet.Spec {
	return fleet.Spec{
		Devices: size.FleetDevices,
		Days:    size.FleetDays,
		Scale:   size.FleetScale,
		// 4 KiB requests as in the paper's attack, not fleet's coarser
		// 64 KiB default: the FS and FTL per-request paths are the point.
		ReqBytes: 4096,
		Profiles: []fleet.ProfileWeight{
			{Profile: device.ProfileMotoE8(), Weight: 0.5},
			{Profile: device.ProfileBLU4(), Weight: 0.5},
		},
		Classes: []fleet.ClassWeight{
			{Class: fleet.ClassBenign, Weight: 0.90},
			{Class: fleet.ClassBuggy, Weight: 0.05},
			{Class: fleet.ClassAttack, Weight: 0.05},
		},
	}
}

func prepareFleetBatch(seed int64, size sizes) (int64, error) {
	spec := fleetBatchSpec(size)
	// 5% of each heavy class, spread evenly over the models.
	heavy := split(int(math.Round(float64(size.FleetDevices)*0.05)), len(spec.Profiles))
	return pickRootSeed(spec, seed, composition{attack: heavy, buggy: heavy, buggyBytesTol: 0.10})
}

func runFleetBatch(env passEnv) (passResult, error) {
	spec := fleetBatchSpec(env.size)
	spec.Seed = env.rootSeed
	spec.Workers = simWorkers
	spec.WearTrace = env.variant != variantNoWearTrace
	sp := env.span.Start("fleet.Run")
	res, err := fleet.Run(context.Background(), spec)
	sp.End()
	if err != nil {
		return passResult{}, fmt.Errorf("fleet_batch: %w", err)
	}
	if res.Failed != 0 {
		return passResult{}, fmt.Errorf("fleet_batch: %d device simulations panicked (seeds %v)", res.Failed, res.FailedSeeds)
	}
	out := passResult{deviceDays: float64(env.size.FleetDevices) * env.size.FleetDays, bricked: res.Total.Bricked}
	out.fingerprint, err = fingerprintOf(res.Accumulator)
	return out, err
}

// campaignPrint renders everything fleetd's determinism contract covers.
func campaignPrint(c *fleetd.Campaign) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.Series().WriteCSV(&buf); err != nil {
		return nil, err
	}
	if err := c.Ledger().WriteCSV(&buf); err != nil {
		return nil, err
	}
	agg, final := c.Aggregate()
	if !final {
		return nil, errors.New("campaign finished without a final aggregate")
	}
	raw, err := json.Marshal(agg)
	if err != nil {
		return nil, err
	}
	buf.Write(raw)
	return buf.Bytes(), nil
}

// campaign_ckpt's class mix: 3% buggy, 3% attack, the rest benign.
const campaignBuggy, campaignAttack = 0.03, 0.03

const campaignShards = 2

// campaignBrickDays is the horizon by which every attack phone of a campaign
// must have bricked (a BLU 4GB does about eight days in), so that the
// frozen-carry path of a dead device runs in every full-size pass.
const campaignBrickDays = 10

func campaignSpec(size sizes, rootSeed int64) fleetd.CampaignSpec {
	return fleetd.CampaignSpec{
		Name:            "bench",
		Devices:         size.CampaignDevices,
		Days:            size.CampaignDays,
		Seed:            rootSeed,
		Scale:           size.CampaignScale,
		Buggy:           campaignBuggy,
		Attack:          campaignAttack,
		WearTrace:       true,
		Shards:          campaignShards,
		Workers:         simWorkers,
		CheckpointEvery: 1,
	}
}

// campaignPopulation is the fleet.Spec fleetd samples campaignSpec's devices
// from: the default profile mix and the class weights in fleetd's order.
// fleetd does not export that derivation, so this is a copy;
// TestCampaignPopulationIsFleetds pins it to what a campaign really runs.
func campaignPopulation(size sizes) fleet.Spec {
	return fleet.Spec{
		Devices: size.CampaignDevices,
		Classes: []fleet.ClassWeight{
			{Class: fleet.ClassBenign, Weight: 1 - campaignBuggy - campaignAttack},
			{Class: fleet.ClassBuggy, Weight: campaignBuggy},
			{Class: fleet.ClassAttack, Weight: campaignAttack},
		},
	}.Defaults()
}

// campaignHeavy is how many attack phones, and how many buggy ones, a
// campaign of this size has: the class share of its devices (one of each at
// the default size).
func campaignHeavy(size sizes) int {
	return int(math.Round(float64(size.CampaignDevices) * campaignAttack))
}

// Every seed's campaign has its attack phones on the BLU 4GB, which bricks
// about eight days in and is carried frozen from then on (of the models that
// brick inside two weeks it costs the least host time to wear out), and its
// buggy phones on the Moto E 8GB.
func prepareCampaignCkpt(seed int64, size sizes) (int64, error) {
	spec := campaignPopulation(size)
	want := composition{
		attack: make([]int, len(spec.Profiles)), buggy: make([]int, len(spec.Profiles)),
		buggyBytesTol: 0.25, capacityTol: 0.10,
	}
	for i, pw := range spec.Profiles {
		switch pw.Profile.Name {
		case device.ProfileBLU4().Name:
			want.attack[i] = campaignHeavy(size)
		case device.ProfileMotoE8().Name:
			want.buggy[i] = campaignHeavy(size)
		}
	}
	return pickRootSeed(spec, seed, want)
}

func runCampaignCkpt(env passEnv) (passResult, error) {
	spec := campaignSpec(env.size, env.rootSeed)
	// fsync is a no-op, as on a memory-backed file system: the sandbox's
	// disk latency is not the program's cost, and cells are deleted long
	// before the kernel would write them back on its own.
	var fsys hostio.FS = noSyncFS{}
	var res passResult
	if env.span != nil {
		res.hostio = newMeterFS(fsys, env.span)
		fsys = res.hostio
	}
	opts := fleetd.Options{DataDir: filepath.Join(env.dir, "data"), FS: fsys}
	fail := func(err error) (passResult, error) { return passResult{}, fmt.Errorf("campaign_ckpt: %w", err) }

	sp := env.span.Start("fleetd.NewManagerOpts")
	mgr, err := fleetd.NewManagerOpts(opts)
	sp.End()
	if err != nil {
		return fail(err)
	}
	if env.variant == variantRuntrace {
		mgr.Trace().StartRecording()
	}
	sp = env.span.Start("fleetd Submit+Wait")
	c, err := mgr.Submit(spec)
	if err == nil {
		err = c.Wait()
	}
	sp.End()
	if err != nil {
		return fail(err)
	}
	if c.State() != fleetd.StateDone {
		return fail(fmt.Errorf("campaign ended %s", c.State()))
	}
	mgr.Trace().StopRecording()
	res.phases = mgr.Trace().Totals()
	first, err := campaignPrint(c)
	if err != nil {
		return fail(err)
	}
	agg, _ := c.Aggregate()
	res.bricked = agg.Total.Bricked
	if want := int64(campaignHeavy(env.size)); env.size.CampaignDays >= campaignBrickDays && res.bricked < want {
		return fail(fmt.Errorf("%d devices bricked inside %d days, want the %d attack phones: the frozen-carry path did not run", res.bricked, env.size.CampaignDays, want))
	}
	if err := c.Journal().Close(); err != nil {
		return fail(err)
	}

	// Cold re-adopt: a fresh manager over the same directory, as after a
	// restart. Every cell must be reused and the results byte-identical.
	sp = env.span.Start("fleetd re-adopt + Resume")
	start := time.Now()
	mgr2, err := fleetd.NewManagerOpts(opts)
	if err != nil {
		sp.End()
		return fail(fmt.Errorf("re-adopt: %w", err))
	}
	c2, ok := mgr2.Get(c.ID())
	if !ok {
		sp.End()
		return fail(fmt.Errorf("re-adopt: campaign %s not found in data dir", c.ID()))
	}
	if err = c2.Resume(); err == nil {
		err = c2.Wait()
	}
	res.resumeSeconds = time.Since(start).Seconds()
	sp.End()
	if err != nil {
		return fail(fmt.Errorf("resume: %w", err))
	}
	second, err := campaignPrint(c2)
	if err != nil {
		return fail(err)
	}
	if err := c2.Journal().Close(); err != nil {
		return fail(err)
	}
	res.epochs = int64(env.size.CampaignDays)
	res.cells = campaignShards * res.epochs
	res.cellsReused = mgr2.Metrics().CellsReused.Value()
	if computed := mgr2.Metrics().CellsComputed.Value(); computed != 0 || res.cellsReused != res.cells {
		return fail(fmt.Errorf("resume reused %d and recomputed %d cells, want %d and 0", res.cellsReused, computed, res.cells))
	}
	if !bytes.Equal(first, second) {
		return fail(errors.New("resumed campaign's series/ledger/aggregate differ from the original's"))
	}
	res.deviceDays = float64(env.size.CampaignDevices * env.size.CampaignDays)
	sum := sha256.Sum256(first)
	res.fingerprint = hex.EncodeToString(sum[:])
	return res, nil
}
