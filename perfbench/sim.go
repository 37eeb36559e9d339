package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"time"

	"repro/internal/netsim"
	_ "repro/internal/proto/all"
)

// simWorkload is a registered scenario, optionally with its window cut
// short. Zero windows keep the registered ones.
type simWorkload struct {
	name            string
	scenario        string
	warmup, measure time.Duration
	// poolSize is how many scenario seeds the workload's runs draw from
	// (pools in fingerprints.go).
	poolSize int
	// sampleSeconds is the typical wall time of one sample on a 2-CPU
	// host. A run takes --seconds / sampleSeconds samples, at least one
	// and one fewer than the pool, so its work is fixed by its
	// arguments and not by how fast the host runs that minute.
	sampleSeconds float64
}

var (
	// simMetroSlice is the simulator headline: the registered
	// metro-slice district at its registered 10 s + 60 s window. It
	// resolves to one engine, so the tile layer never runs.
	simMetroSlice = simWorkload{name: "metro-slice", scenario: "metro-slice",
		poolSize: 6, sampleSeconds: 6}
	// simMetro5kShort is metro-5k at the BenchmarkMetroSweep window.
	// Default Tiles auto-tiles it to min(NumCPU, 8) shards: the one
	// workload where the tile layer runs.
	simMetro5kShort = simWorkload{name: "metro-5k-short", scenario: "metro-5k",
		warmup: 5 * time.Second, measure: 15 * time.Second,
		poolSize: 4, sampleSeconds: 11.5}
)

var simWorkloads = map[string]simWorkload{
	simMetroSlice.name:   simMetroSlice,
	simMetro5kShort.name: simMetro5kShort,
}

// instantiate returns the workload for one scenario seed.
func (w simWorkload) instantiate(seed int64) (netsim.Scenario, error) {
	def, ok := netsim.LookupScenario(w.scenario)
	if !ok {
		return netsim.Scenario{}, fmt.Errorf("scenario %q not registered", w.scenario)
	}
	sc := def.Instantiate(seed)
	if w.measure > 0 {
		sc.Warmup, sc.Measure = w.warmup, w.measure
	}
	return sc, nil
}

// scenarioSeed maps a run seed and a sample index into the workload's
// seed pool: consecutive samples walk the pool from the run seed's
// position.
func scenarioSeed(w simWorkload, seed int64, sample int) int64 {
	pool := pools[w.name]
	k := int64(len(pool))
	return pool[((seed-1+int64(sample))%k+k)%k]
}

// minSetups is how many cold set-up probes feed the setup_s median.
const minSetups = 9

// simSample is one child process's report.
type simSample struct {
	ScenarioSeed int64   `json:"scenario_seed"`
	SetupS       float64 `json:"setup_s"`
	Timed        bool    `json:"timed"`
	WallS        float64 `json:"wall_s"`
	SimS         float64 `json:"sim_s"`
	CPUS         float64 `json:"cpu_s"`
	AllocMB      float64 `json:"alloc_mb"`
	PeakHeapMB   float64 `json:"peak_heap_mb"`
	Fingerprint  string  `json:"fingerprint"`
	Tiles        int     `json:"tiles"`
	// FramesReceived and FramesInRange count (frame, in-range receiver)
	// pairs: received, and received or lost to collision or fading.
	FramesReceived int64 `json:"frames_received"`
	FramesInRange  int64 `json:"frames_in_range"`
	// EventsReceived counts event copies heard: the seed's protocol
	// work, which drives its wall time.
	EventsReceived int64 `json:"events_received"`
	// Counters (traced samples only) are the per-layer metrics: the
	// run's deterministic counters and the span aggregates' totals.
	Counters map[string]float64    `json:"counters,omitempty"`
	Spans    map[string]aggSummary `json:"spans,omitempty"`
	Err      string                `json:"err,omitempty"`
}

// runChild is the -child entry point: "probe" times set-up only,
// "sample" times set-up then the workload, "trace" does the same with
// the timed run traced.
func runChild(mode, name string, seed int64) int {
	w, ok := simWorkloads[name]
	if !ok || (mode != "probe" && mode != "sample" && mode != "trace") {
		fmt.Fprintf(os.Stderr, "perfbench: bad child mode %q for workload %q\n", mode, name)
		return 2
	}
	s, err := simChild(w, seed, mode)
	if err != nil {
		s.Err = err.Error()
	}
	printJSON(s)
	return 0
}

func simChild(w simWorkload, seed int64, mode string) (simSample, error) {
	s := simSample{ScenarioSeed: seed}
	sc, err := w.instantiate(seed)
	if err != nil {
		return s, err
	}
	// Set-up probe first, cold: street graph, mobility, medium and
	// protocol construction, with the window cut to its minimum.
	probe := sc
	probe.Warmup, probe.Measure = 0, time.Nanosecond
	t0 := time.Now()
	if _, err := netsim.Run(probe); err != nil {
		return s, fmt.Errorf("set-up probe: %w", err)
	}
	s.SetupS = time.Since(t0).Seconds()
	if mode == "probe" {
		return s, nil
	}
	var tr *simTracer
	if mode == "trace" {
		tr = newSimTracer(wallClock())
		sc.Protocol = tr.wrap(sc.Protocol)
	}
	win := openWindow()
	res, err := netsim.Run(sc)
	m := win.close()
	if err != nil {
		return s, err
	}
	s.Timed = true
	s.WallS, s.CPUS = m.wall.Seconds(), m.cpu.Seconds()
	s.AllocMB, s.PeakHeapMB = m.allocMB, m.peakHeapMB
	s.SimS = (sc.Warmup + sc.Measure).Seconds()
	s.Fingerprint = res.Fingerprint()
	s.Tiles = 1
	if res.Tile != nil {
		s.Tiles = res.Tile.Tiles
	}
	for _, n := range res.Nodes {
		s.EventsReceived += int64(n.Proto.EventsReceived)
		s.FramesReceived += int64(n.MAC.FramesReceived)
		s.FramesInRange += int64(n.MAC.FramesReceived + n.MAC.FramesLost + n.MAC.FramesFaded)
	}
	if tr != nil {
		s.Counters = resultCounters(res)
		s.Spans = tr.summaries(&s, s.Counters)
	}
	return s, nil
}

// spawn runs one child process and returns its report.
func spawn(mode string, w simWorkload, seed int64) (simSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return simSample{}, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", w.name,
		"-scenario-seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return simSample{}, fmt.Errorf("child %s seed %d: %w", mode, seed, err)
	}
	var s simSample
	if err := json.Unmarshal(out, &s); err != nil {
		return simSample{}, fmt.Errorf("child %s seed %d: bad report: %w", mode, seed, err)
	}
	if s.Err != "" {
		return s, errors.New(s.Err)
	}
	return s, nil
}

// check counts a failed operation unless the sample ran and its
// fingerprint equals the one recorded for (workload, scenario seed).
func check(o *outcome, w simWorkload, s simSample, err error) bool {
	o.attempted++
	if err != nil {
		o.fail("%s: %v", w.name, err)
		return false
	}
	if !s.Timed {
		return true
	}
	want, ok := fingerprints[w.name][s.ScenarioSeed]
	switch {
	case !ok:
		o.fail("%s seed %d: no recorded fingerprint", w.name, s.ScenarioSeed)
	case s.Fingerprint != want:
		o.fail("%s seed %d: fingerprint %s, recorded %s", w.name, s.ScenarioSeed, s.Fingerprint, want)
	default:
		return true
	}
	return false
}

// samples is how many timed samples a run of the given budget takes.
func (w simWorkload) samples(budget time.Duration) int {
	return max(1, min(w.poolSize-1, int(budget.Seconds()/w.sampleSeconds)))
}

// runSim runs the untraced or traced simulator benchmark. Untraced, it
// takes w.samples fresh-process samples on consecutive pool seeds,
// tops the cold set-up probes up to minSetups, and reports medians.
// Traced, it runs one untraced and one traced sample on the same
// scenario seed.
func runSim(w simWorkload, seed int64, budget time.Duration, traced bool) outcome {
	o := outcome{values: map[string]float64{}}
	if traced {
		return runSimTraced(w, seed, o)
	}
	var speed, cpu, alloc, peak, setups, step, ratio, walls []float64
	var seeds []int64
	tiles := 0
	for i := 0; i < w.samples(budget); i++ {
		s, err := spawn("sample", w, scenarioSeed(w, seed, i))
		// Each sample is also a set-up probe; a failed one still
		// counts both operations.
		o.attempted++
		if check(&o, w, s, err) {
			setups = append(setups, s.SetupS)
			speed = append(speed, s.SimS/s.WallS)
			cpu = append(cpu, s.CPUS)
			alloc = append(alloc, s.AllocMB)
			peak = append(peak, s.PeakHeapMB)
			step = append(step, 1000*s.WallS/s.SimS)
			ratio = append(ratio, float64(s.FramesReceived)/float64(s.FramesInRange))
			seeds = append(seeds, s.ScenarioSeed)
			walls = append(walls, s.WallS)
			tiles = s.Tiles
		}
	}
	for i := 0; len(setups) < minSetups && i < 2*minSetups; i++ {
		s, err := spawn("probe", w, scenarioSeed(w, seed, i))
		if check(&o, w, s, err) {
			setups = append(setups, s.SetupS)
		}
	}
	o.values["sim_speed"] = median(speed)
	o.values["cpu_s"] = median(cpu)
	o.values["alloc_mb"] = median(alloc)
	o.values["peak_heap_mb"] = median(peak)
	o.values["setup_s"] = median(setups)
	// A simulator delivers simulated time: its deliver_p50_ms is the
	// wall time one simulated second takes, and its delivery_ratio is
	// the MAC's share of in-range (frame, receiver) pairs received.
	o.values["deliver_p50_ms"] = median(step)
	o.values["delivery_ratio"] = median(ratio)
	printJSON(simRecord{Workload: w.name, ScenarioSeeds: seeds, WallS: walls, Tiles: tiles, SetupProbes: len(setups)})
	return o
}

// simRecord is printed before the result: which scenario seeds were
// timed and the tile count the run resolved to on this host.
type simRecord struct {
	Workload      string    `json:"workload"`
	ScenarioSeeds []int64   `json:"scenario_seeds"`
	WallS         []float64 `json:"wall_s"`
	Tiles         int       `json:"tiles"`
	SetupProbes   int       `json:"setup_probes"`
}

// recordFingerprints surveys scenario seeds 1..n of workload w, each
// in a fresh child process, and prints its pools and fingerprints
// entries: the w.poolSize seeds whose protocol work (event copies heard)
// is closest to the survey's median, plus seed 1, metro-slice's golden
// seed, which the tests cross-check. Work per seed varies up to
// threefold on the metro scenarios (a handful of diurnal events decide
// how far traffic floods), so a pool of comparable work keeps the
// run-to-run spread a measure of the program rather than of the draw.
func recordFingerprints(name string, n int) int {
	w, ok := simWorkloads[name]
	if !ok || n < w.poolSize {
		fmt.Fprintf(os.Stderr, "perfbench: -record needs a simulator --workload and at least %d seeds\n", w.poolSize)
		return 2
	}
	type seedWork struct {
		seed int64
		work int64
		fp   string
	}
	var all []seedWork
	for seed := int64(1); seed <= int64(n); seed++ {
		s, err := spawn("sample", w, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, seed, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "%s seed %d: %s events received %d, frames received %d, wall %.2fs\n",
			w.name, seed, s.Fingerprint, s.EventsReceived, s.FramesReceived, s.WallS)
		all = append(all, seedWork{seed, s.EventsReceived, s.Fingerprint})
	}
	byWork := append([]seedWork(nil), all...)
	sort.Slice(byWork, func(i, j int) bool { return byWork[i].work < byWork[j].work })
	mid := byWork[len(byWork)/2].work
	dist := func(x seedWork) int64 { return max(x.work-mid, mid-x.work) }
	sort.SliceStable(byWork, func(i, j int) bool { return dist(byWork[i]) < dist(byWork[j]) })
	pool := byWork[:w.poolSize]
	sort.Slice(pool, func(i, j int) bool { return pool[i].seed < pool[j].seed })
	fmt.Printf("// %s: seeds 1..%d surveyed, median %d event copies heard.\n%q: {", w.name, n, mid, w.name)
	for i, p := range pool {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(p.seed)
	}
	fmt.Printf("},\n\n%q: {\n\t1: %q,\n", w.name, all[0].fp)
	for _, p := range pool {
		if p.seed != 1 {
			fmt.Printf("\t%d: %q, // %d event copies heard\n", p.seed, p.fp, p.work)
		}
	}
	fmt.Println("},")
	return 0
}
