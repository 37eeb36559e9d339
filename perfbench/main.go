// Command perfbench is the repository benchmark: three workloads driven
// through the public entry points (netsim.Run for the simulator,
// pubsub nodes over transport.UDP on loopback for the real path), each
// printing its end-to-end metrics, or with -trace 1 its per-layer
// metrics, as one JSON line. See README.md for why each workload
// exists and which layer metric should move which end-to-end metric.
//
//	perfbench --workload metro-slice --seed 1 --seconds 30 --trace 0
//
// The simulator workloads run every sample in a fresh child process
// (the same binary, -child mode): mobility.Graph memoizes its street
// graph and route cache for the whole process, so a second run in one
// process would measure a warm state no CLI invocation sees.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one metric and its unit; the lists below mirror
// BENCHMARK.json (a test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sim_speed", "sim-s/wall-s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
	{"deliver_p50_ms", "ms"},
	{"delivery_ratio", "fraction"},
}

var perLayer = []metricDef{
	{"core.handle_calls", "count"},
	{"core.handle_self_s", "s"},
	{"core.timer_fires", "count"},
	{"core.timer_self_s", "s"},
	{"core.publish_calls", "count"},
	{"core.publish_self_s", "s"},
	{"core.msgs_sent", "count"},
	{"core.duplicate_ratio", "fraction"},
	{"core.parasite_ratio", "fraction"},
	{"mac.broadcast_calls", "count"},
	{"mac.enqueue_s", "s"},
	{"mac.frames_sent", "count"},
	{"mac.frames_received", "count"},
	{"mac.frames_lost", "count"},
	{"mac.defers", "count"},
	{"mac.loss_ratio", "fraction"},
	{"netsim.substrate_s", "s"},
	{"netsim.tiles", "count"},
	{"netsim.tile_windows", "count"},
	{"netsim.tile_crossings", "count"},
	{"netsim.tile_fanned_frames", "count"},
	{"netsim.tile_serial_frames", "count"},
	{"netsim.deliveries", "count"},
	{"mobility.speed_calls", "count"},
	{"transport.broadcast_calls", "count"},
	{"transport.broadcast_s", "s"},
	{"transport.hop_p50_us", "us"},
	{"transport.hop_p99_us", "us"},
	{"transport.datagrams_sent", "count"},
	{"transport.datagrams_per_sendmmsg", "dgram/call"},
	{"transport.datagrams_per_recvmmsg", "dgram/call"},
	{"transport.send_queue_max", "count"},
	{"transport.recv_queue_max", "count"},
	{"transport.send_drops", "count"},
	{"transport.recv_drops", "count"},
	{"transport.send_errors", "count"},
	{"transport.decode_errors", "count"},
	{"pubsub.publish_calls", "count"},
	{"pubsub.publish_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.overhead_wall_s", "s"},
	{"trace.overhead_cpu_s", "s"},
}

// outcome is what one workload run produced before formatting: values
// by metric name (absent ones print as 0, for layers the workload does
// not exercise) and the operation counts.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
}

func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n failed operations and says why on stderr.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

func (o outcome) result(defs []metricDef) result {
	r := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // an empty sample, already counted as failed
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds time.Duration, trace bool) outcome{
	"metro-slice":    func(seed int64, s time.Duration, tr bool) outcome { return runSim(simMetroSlice, seed, s, tr) },
	"metro-5k-short": func(seed int64, s time.Duration, tr bool) outcome { return runSim(simMetro5kShort, seed, s, tr) },
	"udp-mesh":       runMesh,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: metro-slice, metro-5k-short or udp-mesh")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	child := fs.String("child", "", "internal: run one simulator sample (probe, sample or trace) and print it")
	scSeed := fs.Int64("scenario-seed", 0, "internal: the child's scenario seed")
	record := fs.Int("record", 0, "survey scenario seeds 1..N of a simulator --workload, print its seed pool with fingerprints and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record > 0 {
		return recordFingerprints(*name, *record)
	}
	if *child != "" {
		return runChild(*child, *name, *scSeed)
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		return 2
	}
	printJSON(hostRecord())
	o := wl(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	printJSON(o.result(defs))
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are printed
	}
	fmt.Println(string(b))
}
