// Command e2ebench is the repository's end-to-end benchmark. In one
// process it deploys the five-stage scAtteR++ pipeline (primary → sift →
// encoding → lsh → matching) as agent workers on loopback UDP, streams the
// synthetic 720p clip through it from open-loop agent clients, and
// reports what an AR client sees: delivered FPS, end-to-end latency and
// jitter, recognition correctness, CPU, memory and set-up time. Every run
// also regenerates the paper's simulated figures and checks them against
// a recorded digest.
//
//	bash e2ebench/run.sh --workload stream-720p --seed 1 --seconds 52 --trace 0
//
// With --trace 1 the run measures an untraced and a traced deployment for
// half the time each and prints the per-layer ledger instead: processor,
// transport and sidecar timings taken around each layer's public calls,
// the spans workers stamp on frames, worker and fast-path counters, and
// runtime/metrics. The last line of standard output is one JSON object
// with keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads are the benchmark's traffic mixes (NOTES.md gives the
// reasons for each).
var workloads = map[string]workload{
	// The paper's pipeline as published, below the knee: latency is the
	// sum of stage service times, and SIFT dominates it. A frame costs
	// ~62 ms of CPU, so at 20 FPS a 2-core box that loses a core to its
	// neighbours sheds frames at sift's threshold. At 10 FPS it keeps
	// most of a core idle, and the client's loop can stall for a whole
	// 100 ms interval before agent.Client drops a tick (NOTES.md).
	"stream-720p": {clients: 1, fps: 10},
	// Two clients with the tracker-gated fast path and recognition cache
	// on: most frames are answered at primary, so uplink reassembly, the
	// gate and the codec dominate latency. At the paper's 30 FPS per
	// client, a refresh frame is still in the pipeline when the next
	// frame arrives, so refreshes come in storms that queue at sift past
	// its threshold and shed ~0.5% of frames (15 FPS still sheds one
	// now and then). At 10 FPS a refresh completes within the interval,
	// and the client has the same 100 ms of slack as on stream-720p.
	"fastpath-720p": {clients: 2, fps: 10, fastPath: true},
}

const (
	warmUp    = 2 * time.Second
	setupReps = 3
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of each client's entry into the clip loop and of the second client's phase")
	seconds := flag.Int("seconds", 52, "measured window in seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer ledger from a traced run instead of the end-to-end metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 2 || (*traced != 0 && *traced != 1) {
		return errors.New("need --seconds >= 2 and --trace 0 or 1")
	}
	window := time.Duration(*seconds) * time.Second

	hdr, _ := json.Marshal(map[string]any{"machine": stamp(), "workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced})
	fmt.Println(string(hdr))

	reps := setupReps
	if *traced == 1 {
		reps = 1 // set-up time is an end-to-end metric only
	}
	var fx *fixture
	var setups []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if fx, err = newFixture(); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		runtime.GC()
	}
	// The figures are regenerated three times and reported as the
	// median, so a burst of load from outside the process moves at most
	// one of them. An unreported first regeneration takes the process's
	// one-off costs (heap growth, first-touch page faults). All run
	// before streaming, with the fixture live, so they see the same heap
	// and GC pacing; after streaming, the heap the pipeline grew and
	// released slowed them by up to 30%.
	runFigures()
	sim := medianFigures([]simResult{runFigures(), runFigures(), runFigures()})

	res := result{Metrics: make(map[string]metric)}
	var notes []string
	if *traced == 0 {
		p, err := runPhase(fx, wl, false, *seed, warmUp, window)
		if err != nil {
			return err
		}
		sum := p.summarize(fx)
		_, rss := cpuTime()
		put := func(k string, v float64, unit string) { res.Metrics[k] = metric{v, unit} }
		put("delivered_fps", float64(sum.delivered)/window.Seconds()/float64(wl.clients), "frames/s")
		put("delivered_ratio", ratio(float64(sum.delivered), float64(sum.offered)), "ratio")
		put("e2e_p50_ms", percentile(sum.e2eMs, 50), "ms")
		put("pose_hit_ratio", ratio(float64(sum.poseHits), float64(sum.delivered)), "ratio")
		put("cpu_ms_per_frame", sum.cpuMsPerFrame, "ms")
		put("mem_peak_mb", rss, "MB")
		put("setup_s", median(setups)+p.setupWall.Seconds(), "s")
		put("sim_wall_s", sim.wall.Seconds(), "s")
		res.Correct, notes = check(sim, sum)
		res.Attempted, res.Failed = sum.offered, sum.offered-sum.delivered
		// The tail and the jitter are printed but not part of the result:
		// across runs on a shared 2-vCPU machine they spread wider than
		// any bound a regression gate can use (NOTES.md).
		pt, beyond := tailPercentile(sum.delivered)
		notes = append(notes,
			fmt.Sprintf("e2e_p%g_ms %.4f ms over %d delivered frames, %d beyond it (reported, not gated)",
				pt, percentile(sum.e2eMs, pt), sum.delivered, beyond),
			fmt.Sprintf("jitter_ms %.4f ms (reported, not gated)", sum.jitterMs),
			sum.String(), p.lossNote(sum))
	} else {
		// Untraced then traced, half the window each: the difference of
		// their medians is the tracing overhead.
		plain, err := runPhase(fx, wl, false, *seed, warmUp, window/2)
		if err != nil {
			return err
		}
		plainSum := plain.summarize(fx)
		p, err := runPhase(fx, wl, true, *seed, warmUp, window/2)
		if err != nil {
			return err
		}
		sum := p.summarize(fx)
		lg := buildLedger(p, sum)
		lg.metrics["tracing.overhead_ms_p50"] = percentile(sum.e2eMs, 50) - percentile(plainSum.e2eMs, 50)
		for _, f := range figures {
			lg.metrics["sim."+f.name+".wall_ms"] = ms(sim.perFig[f.name])
		}
		for k, v := range lg.metrics {
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
		res.Correct, notes = check(sim, sum)
		if !lg.residualOK {
			res.Correct = false
			notes = append(notes, fmt.Sprintf("FAIL ledger: median residual %.3f ms exceeds ±%.2f ms",
				lg.metrics["ledger.residual_ms_p50"], ledgerTolerance))
		}
		if lg.incomplete > 0 {
			res.Correct = false
			notes = append(notes, fmt.Sprintf("FAIL ledger: %d delivered frames lack spans or processor timings", lg.incomplete))
		}
		if u := lg.metrics["agent.unaccounted_ratio"]; u != 0 {
			notes = append(notes, fmt.Sprintf("FLAG accounting: %.4f of offered frames (%.1f frames) are neither delivered nor counted by a drop counter",
				u, u*float64(sum.offered)))
		}
		// Both phases stream the workload, so a frame lost in either fails.
		res.Attempted = sum.offered + plainSum.offered
		res.Failed = res.Attempted - sum.delivered - plainSum.delivered
		notes = append(notes, fmt.Sprintf("traced %s; untraced %s", sum, plainSum),
			"traced "+p.lossNote(sum), "untraced "+plain.lossNote(plainSum))
	}

	printReport(res, append(notes, sim.note))
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// tailPercentile picks the highest of the tail percentiles 99, 98, 95
// and 90 that n samples put at least ten samples beyond, and returns it
// with that count.
func tailPercentile(n int) (float64, int) {
	var beyond int
	for _, p := range []float64{99, 98, 95, 90} {
		beyond = n - 1 - int(p/100*float64(n-1))
		if beyond >= 10 {
			return p, beyond
		}
	}
	return 90, beyond
}

// check applies the output correctness checks shared by both modes.
func check(sim simResult, sum e2eSummary) (bool, []string) {
	ok := true
	var notes []string
	fail := func(format string, args ...any) {
		ok = false
		notes = append(notes, "FAIL "+fmt.Sprintf(format, args...))
	}
	if !sim.correct {
		fail("figures: digest %s, want %s", sim.digest, figureDigest)
	}
	if sum.delivered == 0 {
		fail("no frame delivered")
	}
	if sum.badIDs > 0 {
		fail("%d detections name objects the model was not trained on", sum.badIDs)
	}
	if r := ratio(float64(sum.poseHits), float64(sum.delivered)); r < poseFloor {
		fail("pose_hit_ratio %.3f below %.2f", r, poseFloor)
	}
	return ok, notes
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_"):
		return "ms"
	case strings.Contains(name, "_us_"):
		return "us"
	case strings.HasSuffix(name, "alloc_kb_per_frame"):
		return "KB/frame"
	case strings.HasSuffix(name, "_kb"):
		return "KB"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "reassembly_drops"):
		return "1/frame"
	default:
		return "ratio"
	}
}

// printReport writes the human-readable table ahead of the JSON line.
func printReport(res result, notes []string) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-48s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
}
