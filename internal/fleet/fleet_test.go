package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flashwear/internal/device"
	"flashwear/internal/faultinject"
)

// testSpec is a small fleet that still exercises every workload class and
// bricks some devices. Simulating a brick costs ~capacity×RatedPE page
// programs no matter how the workload is arranged, so the test derates the
// profiles' endurance (wear physics are linear in RatedPE) to keep the
// -race run short; the mix leans on the BLU 4GB profile because it is the
// cheapest to kill.
func testSpec(workers int) Spec {
	blu, moto := device.ProfileBLU4(), device.ProfileMotoE8()
	blu.RatedPE = 150  // 600 on the real device
	moto.RatedPE = 300 // 1300 on the real device
	return Spec{
		Devices: 64,
		Workers: workers,
		Seed:    42,
		Days:    8,
		Scale:   8192,
		Profiles: []ProfileWeight{
			{blu, 0.8},
			{moto, 0.2},
		},
		Classes: []ClassWeight{
			{ClassBenign, 0.86},
			{ClassBuggy, 0.06},
			{ClassAttack, 0.08},
		},
	}
}

// stripSpec clears the non-comparable parts so Results can be DeepEqual'd.
func stripSpec(r *Result) *Result {
	r.Spec = Spec{}
	return r
}

// TestFleetDeterminism is the subsystem's core guarantee: the same seed
// produces byte-identical aggregates across repeated runs AND across
// worker counts (64 devices, 4 workers vs 1). Run under -race this also
// exercises the pool for data races (the Makefile's check target does
// exactly that). The sanity assertions ride on the first run so the test
// stays affordable.
func TestFleetDeterminism(t *testing.T) {
	ctx := context.Background()
	first, err := Run(ctx, testSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(ctx, testSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(ctx, testSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	// --- population sanity on the first run ---
	if first.Total.Devices != 64 {
		t.Fatalf("simulated %d devices, want 64", first.Total.Devices)
	}
	if first.Total.Bricked == 0 {
		t.Fatal("no devices bricked; the spec should produce some deaths")
	}
	if first.Total.Bricked == first.Total.Devices {
		t.Fatal("every device bricked; the spec should keep most survivors")
	}
	// Benign phones must essentially never brick inside the short horizon;
	// the deliberate attack kills low-endurance phones within days (§4.4).
	if g := first.ByClass[ClassBenign.String()]; g == nil || g.Bricked != 0 {
		t.Errorf("benign group bricked %v, want 0", g)
	}
	atk := first.ByClass[ClassAttack.String()]
	if atk == nil || atk.Devices == 0 {
		t.Fatal("no attack devices sampled; widen the spec")
	}
	if atk.Bricked == 0 {
		t.Errorf("no attack device bricked within %g days", first.Spec.Days)
	}
	if m := atk.MeanDaysToBrick(); m <= 0 || m >= first.Spec.Days {
		t.Errorf("attack mean days-to-brick = %g, want within (0, %g)", m, first.Spec.Days)
	}
	// Bricked + survivor tallies must partition the population.
	if got := first.TimeToBrick.Total(); got != first.Total.Bricked {
		t.Errorf("time-to-brick histogram holds %d, want %d", got, first.Total.Bricked)
	}
	if got := first.SurvivorWear.Total(); got != first.Total.Devices-first.Total.Bricked {
		t.Errorf("survivor-wear histogram holds %d, want %d",
			got, first.Total.Devices-first.Total.Bricked)
	}
	if got := first.WriteAmp.Total(); got != first.Total.Devices {
		t.Errorf("write-amp histogram holds %d, want %d", got, first.Total.Devices)
	}

	// --- determinism ---
	if !reflect.DeepEqual(stripSpec(first), stripSpec(again)) {
		t.Errorf("same spec, different aggregates across runs:\n%+v\nvs\n%+v", first, again)
	}
	if !reflect.DeepEqual(stripSpec(first), stripSpec(serial)) {
		t.Errorf("workers=4 vs workers=1 aggregates differ:\n%+v\nvs\n%+v", first, serial)
	}
}

// TestFleetMetricsDeterminism extends the core guarantee to the sampled
// time series: with MetricsEvery set, the rendered CSV must be
// byte-identical across worker counts (the acceptance bar for fleet
// observability). Sanity checks ride on one run: the devices column is the
// full population on every row, the bricked column is monotone, and its
// final value agrees with the aggregate brick count.
func TestFleetMetricsDeterminism(t *testing.T) {
	ctx := context.Background()
	run := func(workers int) (*Result, string) {
		spec := testSpec(workers)
		spec.Devices = 32
		spec.MetricsEvery = 48 * time.Hour // 4 rows over the 8-day horizon
		res, err := Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteMetricsCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}

	res, csv := run(1)
	// The absolute reference the cross-worker comparison cannot give: a
	// change to how the series is sampled or rendered fails here.
	const golden = "418c59bb8f17d9e8c3b09e085c48f221b57c528589e0bfe9614535341c89696e"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(csv))); got != golden {
		t.Errorf("metrics CSV hash = %s, want %s:\n%s", got, golden, csv)
	}
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("CSV has %d lines, want header + 4 rows:\n%s", len(lines), csv)
	}
	lastBricked := int64(-1)
	for _, line := range lines[1:] {
		cols := strings.Split(line, ",")
		if len(cols) != 11 {
			t.Fatalf("row %q has %d columns, want 11", line, len(cols))
		}
		if cols[1] != "32" {
			t.Errorf("row %q: devices = %s, want 32 (bricked devices must freeze, not drop out)", line, cols[1])
		}
		bricked, err := strconv.ParseInt(cols[2], 10, 64)
		if err != nil || bricked < lastBricked {
			t.Errorf("row %q: bricked = %s, want monotone integer (prev %d)", line, cols[2], lastBricked)
		}
		lastBricked = bricked
	}
	if lastBricked != res.Total.Bricked {
		t.Errorf("final bricked column = %d, aggregate = %d", lastBricked, res.Total.Bricked)
	}
	if res.Total.Bricked == 0 {
		t.Error("no devices bricked; the spec should produce some deaths for the series to show")
	}

	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		if _, other := run(workers); other != csv {
			t.Errorf("metrics CSV differs between workers=1 and workers=%d:\n%s\nvs\n%s", workers, csv, other)
		}
	}
}

// progressLog records what Spec.Progress reports. Calls arrive
// concurrently from the workers.
type progressLog struct {
	mu       sync.Mutex
	calls    int
	maxDone  int
	total    int
	bricked  int64
	readOnly int64
	bare     []int // indices reported as DeviceResult{Index: i} and nothing else
}

func (l *progressLog) record(done, total int, r DeviceResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls++
	l.maxDone = max(l.maxDone, done)
	l.total = total
	if r.Bricked {
		l.bricked++
	}
	if r.ReadOnly {
		l.readOnly++
	}
	if reflect.DeepEqual(r, DeviceResult{Index: r.Index}) {
		l.bare = append(l.bare, r.Index)
	}
}

// check requires what fleetsim's progress displays rely on: one call per
// device with done reaching the population, exactly the panicked devices
// (ascending) reported bare, and brick tallies that agree with the
// deterministic aggregate.
func (l *progressLog) check(t *testing.T, res *Result, devices int, panicked ...int) {
	t.Helper()
	if l.calls != devices || l.maxDone != devices || l.total != devices {
		t.Errorf("Progress: %d calls, done reached %d of %d; want %d calls reaching %d of %d",
			l.calls, l.maxDone, l.total, devices, devices, devices)
	}
	slices.Sort(l.bare)
	if !slices.Equal(l.bare, panicked) {
		t.Errorf("Progress reported %v as DeviceResult{Index: i}, want %v", l.bare, panicked)
	}
	if l.bricked != res.Total.Bricked {
		t.Errorf("Progress counted %d bricked, Total.Bricked = %d", l.bricked, res.Total.Bricked)
	}
	if l.readOnly > l.bricked {
		t.Errorf("Progress counted %d read-only of %d bricked; read-only is a kind of death", l.readOnly, l.bricked)
	}
}

// TestFleetPanicContainment pins the worker containment contract: a
// panicking per-device simulation is recorded as a failed device — with its
// seed, so the failure can be reproduced in isolation — and the rest of the
// fleet still runs to completion. Progress still counts the failed device,
// so both of fleetsim's displays reach N/N.
func TestFleetPanicContainment(t *testing.T) {
	spec := testSpec(2)
	spec.Devices = 8
	spec.Classes = []ClassWeight{{ClassBenign, 1}}
	victims := map[int]bool{2: true, 5: true}
	panicHook = func(p Params) {
		if victims[p.Index] {
			panic("injected device panic")
		}
	}
	defer func() { panicHook = nil }()
	var progress progressLog
	spec.Progress = progress.record

	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("a contained panic must not abort the run: %v", err)
	}
	progress.check(t, res, 8, 2, 5)
	if res.Failed != 2 {
		t.Errorf("Failed = %d, want 2", res.Failed)
	}
	if res.Total.Devices != 6 {
		t.Errorf("Total.Devices = %d, want 6 (failed devices contribute no stats)", res.Total.Devices)
	}
	var want []int64
	for i := range victims {
		want = append(want, spec.Sample(i).Seed)
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	if !reflect.DeepEqual(res.FailedSeeds, want) {
		t.Errorf("FailedSeeds = %v, want %v", res.FailedSeeds, want)
	}
}

// TestFleetFaultPlanDeterminism runs a fleet under an injected fault plan —
// periodic power cuts plus probabilistic read/program faults — and requires
// that every device survives its cuts (recovery + remount + reattach) and
// that the aggregate remains a pure function of the Spec across worker
// counts, per-device fault seeds included. The golden hash is the absolute
// reference the cross-worker comparison cannot give: it pins the faulted
// aggregate, wear ledger included, to the bytes it had before the device
// stack was shared with fleetd, so a refactor of boot, remount, pacing or
// death rules that moves any counter fails here.
func TestFleetFaultPlanDeterminism(t *testing.T) {
	const golden = "938ab10dab05e17b8dcfe39756c2ba6ca225d9765923dd6a100f6201708d27d1"
	build := func(workers int) Spec {
		spec := testSpec(workers)
		spec.Devices = 12
		spec.Days = 4
		spec.Classes = []ClassWeight{{ClassBenign, 0.9}, {ClassAttack, 0.1}}
		spec.WearTrace = true
		spec.Faults = &faultinject.Plan{
			Seed:             99,
			ReadFaultProb:    1e-4,
			ProgramFaultProb: 1e-5,
			PowerCutEvery:    20000,
		}
		return spec
	}
	first, err := Run(context.Background(), build(3))
	if err != nil {
		t.Fatal(err)
	}
	if first.Total.Devices != 12 {
		t.Errorf("Total.Devices = %d, want 12 (power cuts must not kill devices)", first.Total.Devices)
	}
	if first.Faults.Recoveries == 0 {
		t.Error("no device power-cycled; the plan's cuts never fired — tighten PowerCutEvery")
	}
	if first.Faults.ReadFaults == 0 {
		t.Error("no read fault injected — tighten ReadFaultProb")
	}
	if first.Faults.ProgramFaults == 0 {
		t.Error("no program fault injected — tighten ProgramFaultProb")
	}
	raw, err := json.Marshal(first.Accumulator)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != golden {
		t.Errorf("faulted aggregate hash = %s, want %s", got, golden)
	}
	serial, err := Run(context.Background(), build(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripSpec(first), stripSpec(serial)) {
		t.Errorf("faulted fleet differs across worker counts:\n%+v\nvs\n%+v", first, serial)
	}
}

// TestFleetFaultPlanFirstBootDeath pins the death rule at its earliest point: a
// phone that a fault plan kills during first boot — the device bricks under
// mkfs, or every one of nine setup attempts is cut — is a bricked phone in
// the aggregate, as it is in fleetd, not a failed run.
func TestFleetFaultPlanFirstBootDeath(t *testing.T) {
	for _, faults := range []string{"program=0.5", "cut-every=200"} {
		plan, err := faultinject.ParsePlan(faults)
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers int) *Result {
			// Seed 1 because at program=0.5 some seeds draw eight failed
			// programs in a row before the spare blocks run out, and the
			// FTL reports that as a plain I/O error, not a brick.
			spec := Spec{Devices: 4, Workers: workers, Seed: 1, Days: 5, Scale: 65536, Faults: &plan}
			res, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s: a phone dying in first boot must not fail the run: %v", faults, err)
			}
			return res
		}
		first := run(3)
		if first.Total.Devices != 4 || first.Total.Bricked != 4 || first.Failed != 0 {
			t.Errorf("%s: devices/bricked/failed = %d/%d/%d, want 4/4/0",
				faults, first.Total.Devices, first.Total.Bricked, first.Failed)
		}
		if !reflect.DeepEqual(stripSpec(first), stripSpec(run(1))) {
			t.Errorf("%s: first-boot deaths differ across worker counts", faults)
		}
	}
}

// TestFleetSeriesAgreesWithTotalUnderFaults pins that the series and the
// aggregate read one definition of a dead phone. Under a fault plan most
// phones die without the device failing — a read the journal needs is
// uncorrectable, every boot attempt is cut — and those deaths must show in
// the series' frozen tail exactly as they do in Total.
func TestFleetSeriesAgreesWithTotalUnderFaults(t *testing.T) {
	for _, faults := range []string{"read=0.3", "cut-every=200"} {
		plan, err := faultinject.ParsePlan(faults)
		if err != nil {
			t.Fatal(err)
		}
		spec := testSpec(2)
		spec.Devices = 16
		spec.MetricsEvery = 48 * time.Hour
		spec.Faults = &plan
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", faults, err)
		}
		last := res.Metrics.Rows[len(res.Metrics.Rows)-1]
		if last[ColBricked] != res.Total.Bricked || res.Total.Bricked == 0 {
			t.Errorf("%s: last series row has %d bricked, Total.Bricked = %d; want equal and > 0",
				faults, last[ColBricked], res.Total.Bricked)
		}
	}
}

func TestSamplerIsPure(t *testing.T) {
	spec := testSpec(0).Defaults()
	for i := 0; i < 128; i++ {
		a, b := spec.Sample(i), spec.Sample(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sample(%d) differs across calls: %+v vs %+v", i, a, b)
		}
	}
	// Distinct devices must not all collapse onto one seed.
	seen := make(map[int64]bool)
	for i := 0; i < 128; i++ {
		seen[spec.Sample(i).Seed] = true
	}
	if len(seen) != 128 {
		t.Errorf("only %d distinct seeds over 128 devices", len(seen))
	}
}

func TestFleetProgressAndCancellation(t *testing.T) {
	var calls atomic.Int64
	spec := testSpec(2)
	spec.Devices = 8
	spec.Classes = []ClassWeight{{ClassBenign, 1}}
	spec.Progress = func(done, total int, _ DeviceResult) {
		calls.Add(1)
		if total != 8 || done < 1 || done > 8 {
			t.Errorf("Progress(%d, %d) out of range", done, total)
		}
	}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 8 {
		t.Errorf("Progress called %d times, want 8", calls.Load())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, spec); err == nil {
		t.Error("Run on a cancelled context returned nil error")
	}
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Spec)
	}{
		{"no devices", func(s *Spec) { s.Devices = 0 }},
		{"negative days", func(s *Spec) { s.Days = -1 }},
		{"tiny requests", func(s *Spec) { s.ReqBytes = 256 }},
		{"zero profile weights", func(s *Spec) {
			s.Profiles = []ProfileWeight{{device.ProfileMotoE8(), 0}}
		}},
		{"negative class weight", func(s *Spec) {
			s.Classes = []ClassWeight{{ClassBenign, -1}, {ClassAttack, 2}}
		}},
	} {
		spec := testSpec(1).Defaults()
		tc.mut(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
	if err := testSpec(1).Defaults().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}
