package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"flashwear/internal/experiments"
	"flashwear/internal/fleet"
	"flashwear/internal/fleetd"
)

// tinyRun is a run of w small enough for tier-1: two timed passes (or one
// traced round) of tinySizes, shrunken probes.
func tinyRun(t *testing.T, w workloadDef, trace bool) runConfig {
	t.Helper()
	return runConfig{
		workload: w, seed: defaultSeed, seconds: 0, trace: trace, size: tinySizes,
		passes: 2, rounds: 1, probes: probeSize{reps: 1, shrink: 50},
		start: time.Now(), dataDir: t.TempDir(), outDir: t.TempDir(), log: io.Discard,
	}
}

func loadBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(benchmarkJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload must print every name BENCHMARK.json declares, once, with
// the declared unit: the end-to-end metrics untraced, the per-layer metrics
// traced. A run leaves nothing under its scratch directory.
func TestRunsEmitEveryDeclaredMetric(t *testing.T) {
	bf := loadBenchmarkJSON(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's is %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, specs := range [][]metricSpec{bf.EndToEnd, bf.PerLayer} {
		for _, m := range specs {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", m.Name)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace bool
			specs []metricSpec
		}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
			cfg := tinyRun(t, w, mode.trace)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, mode.trace, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for _, m := range res.Metrics {
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s trace=%v: %s emitted twice", w.name, mode.trace, m.Name)
				}
				got[m.Name] = m.Unit
			}
			for _, m := range mode.specs {
				unit, ok := got[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", w.name, mode.trace, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: %s emitted in %q, BENCHMARK.json says %q", w.name, mode.trace, m.Name, unit, m.Unit)
				}
				delete(got, m.Name)
			}
			for name := range got {
				t.Errorf("%s trace=%v: %s emitted but not in BENCHMARK.json", w.name, mode.trace, name)
			}
			if left, err := os.ReadDir(cfg.dataDir); err != nil || len(left) != 0 {
				t.Errorf("%s trace=%v: scratch directory not empty after the run: %v %v", w.name, mode.trace, left, err)
			}
			if mode.trace {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: traced run left no Chrome trace: %v", w.name, err)
				}
				checkLayerAttribution(t, w, res)
			}
		}
	}
}

// checkLayerAttribution: what a traced run says about which layer did the
// work holds at any size.
func checkLayerAttribution(t *testing.T, w workloadDef, res runResult) {
	t.Helper()
	value := func(name string) float64 {
		for _, m := range res.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("%s not emitted", name)
		return 0
	}
	campaign := w.name == "campaign_ckpt"
	for _, name := range []string{"hostio.ckpt_kib_per_device_day", "hostio.fsyncs_per_cell", "hostio.renames_per_cell", "fleetd.cells_reused"} {
		if got := value(name); (got > 0) != campaign {
			t.Errorf("%s: %s = %g", w.name, name, got)
		}
	}
	if onDevice := w.name == "chip_table1" || w.name == "phone_f2fs"; (value("ftl.nand_bytes_per_host_byte") >= 1) != onDevice {
		t.Errorf("%s: ftl.nand_bytes_per_host_byte = %g", w.name, value("ftl.nand_bytes_per_host_byte"))
	}
	if got := value("f2fs.dev_bytes_per_app_byte") / value("extfs.dev_bytes_per_app_byte"); got < 1.5 || got > 2.5 {
		t.Errorf("%s: F2FS issues %.2fx extfs's device bytes per app byte, want about 2x (Figure 4)", w.name, got)
	}
}

// A pass whose fingerprint is not the expected one fails all its
// device-days, and the run is reported incorrect.
func TestCorruptedFingerprintFailsEveryOp(t *testing.T) {
	cfg := tinyRun(t, workloads[0], false)
	cfg.expected = "not the fingerprint"
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 || res.Fingerprint != "" {
		t.Errorf("corrupted expectation: correct=%v failed=%d attempted=%d fingerprint=%q; want every op failed", res.Correct, res.Failed, res.Attempted, res.Fingerprint)
	}
}

// The same seed gives the same inputs and outcome; another seed another.
func TestSeedSelectsInputs(t *testing.T) {
	for _, w := range workloads {
		prints := map[int64]string{}
		for _, seed := range []int64{defaultSeed, defaultSeed, defaultSeed + 1} {
			env := passEnv{seed: seed, size: tinySizes, dir: t.TempDir()}
			if w.prepare != nil {
				var err error
				if env.rootSeed, err = w.prepare(seed, tinySizes); err != nil {
					t.Fatal(err)
				}
			}
			res, err := w.run(env)
			if err != nil {
				t.Fatal(err)
			}
			if old, seen := prints[seed]; seen && old != res.fingerprint {
				t.Errorf("%s: seed %d gave %s, then %s", w.name, seed, old, res.fingerprint)
			}
			prints[seed] = res.fingerprint
		}
		if prints[defaultSeed] == prints[defaultSeed+1] {
			t.Errorf("%s: seeds %d and %d give the same outcome", w.name, defaultSeed, defaultSeed+1)
		}
	}
}

// expected.json must have been taken at the sizes the benchmark runs.
func TestExpectedFileIsCurrent(t *testing.T) {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Seed != defaultSeed || exp.Sizes != defaultSizes {
		t.Errorf("expected.json is for seed %d sizes %+v; the benchmark runs seed %d sizes %+v: go run -C bench flashwear/bench -write-expected",
			exp.Seed, exp.Sizes, defaultSeed, defaultSizes)
	}
	for _, w := range workloads {
		if len(exp.Fingerprints[w.name]) != 64 {
			t.Errorf("expected.json has no fingerprint for %s", w.name)
		}
	}
}

// chip_table1 rebuilds experiments.Table1 from public pieces so that seeds
// are arguments; at the default seed it must still be the exhibit.
func TestChipTable1MatchesExhibit(t *testing.T) {
	size := tinySizes
	want, err := experiments.Table1(experiments.Config{Scale: size.ChipScale, MaxLevel: size.ChipLevel})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := chipTable1(passEnv{seed: defaultSeed, size: size})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Increments) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("chip_table1 at the default seed reports\n%+v\nexperiments.Table1 reports\n%+v", got, want)
	}
}

// heavyDevices counts a population's attack and buggy phones by model.
func heavyDevices(spec fleet.Spec) (attack, buggy map[string]int) {
	attack, buggy = map[string]int{}, map[string]int{}
	for i := 0; i < spec.Devices; i++ {
		p := spec.Sample(i)
		name := spec.Profiles[p.ProfileIndex()].Profile.Name
		switch p.Class {
		case fleet.ClassAttack:
			attack[name]++
		case fleet.ClassBuggy:
			buggy[name]++
		}
	}
	return attack, buggy
}

// Every seed's population has the same heavy devices.
func TestPopulationCompositionIsFixed(t *testing.T) {
	size := defaultSizes
	for _, tc := range []struct {
		name          string
		prepare       func(int64, sizes) (int64, error)
		spec          fleet.Spec
		attack, buggy map[string]int
	}{
		{"fleet_batch", prepareFleetBatch, fleetBatchSpec(size).Defaults(),
			map[string]int{"Moto E 8GB": 1, "BLU 4GB": 1}, map[string]int{"Moto E 8GB": 1, "BLU 4GB": 1}},
		{"campaign_ckpt", prepareCampaignCkpt, campaignPopulation(size),
			map[string]int{"BLU 4GB": 1}, map[string]int{"Moto E 8GB": 1}},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			root, err := tc.prepare(seed, size)
			if err != nil {
				t.Fatal(err)
			}
			tc.spec.Seed = root
			attack, buggy := heavyDevices(tc.spec)
			if !reflect.DeepEqual(attack, tc.attack) || !reflect.DeepEqual(buggy, tc.buggy) {
				t.Errorf("%s seed %d: attack phones %v, buggy phones %v; want %v and %v", tc.name, seed, attack, buggy, tc.attack, tc.buggy)
			}
		}
	}
}

// campaignPopulation copies fleetd's unexported derivation of the fleet.Spec
// a campaign samples its devices from. A campaign run by fleetd must have
// exactly the devices the copy predicts, by class and by model.
func TestCampaignPopulationIsFleetds(t *testing.T) {
	size := defaultSizes
	size.CampaignDays = 1
	root, err := prepareCampaignCkpt(defaultSeed, size)
	if err != nil {
		t.Fatal(err)
	}
	spec := campaignSpec(size, root)
	spec.CheckpointEvery = 0 // no data directory: population only
	mgr, err := fleetd.NewManagerOpts(fleetd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := mgr.Submit(spec)
	if err == nil {
		err = c.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	agg, final := c.Aggregate()
	if !final {
		t.Fatal("campaign finished without a final aggregate")
	}
	got := map[string]int64{}
	for _, g := range append(agg.ByClass, agg.ByProfile...) {
		got[g.Name] = g.Devices
	}
	pop := campaignPopulation(size)
	pop.Seed = root
	want := map[string]int64{}
	for i := 0; i < pop.Devices; i++ {
		p := pop.Sample(i)
		want[p.Class.String()]++
		want[pop.Profiles[p.ProfileIndex()].Profile.Name]++
	}
	if !reflect.DeepEqual(got, want) || want["attack"] != 1 || want["buggy"] != 1 {
		t.Errorf("fleetd ran devices %v; the benchmark's copy of its population predicts %v, with one attack and one buggy phone", got, want)
	}
}
