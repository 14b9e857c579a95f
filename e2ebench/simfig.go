package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/edge-mar/scatter/internal/experiments"
)

// simDuration is the fixed virtual length of each figure's experiment
// points. It is shorter than the paper's 60 s so that regenerating every
// figure costs about a second of wall time, yet every figure still runs
// through core.Pipeline, the sim engine and the experiments tables.
const simDuration = 5 * time.Second

// figureDigest is the SHA-256 of every figure table regenerated at
// simDuration, recorded when the benchmark was created. A change that
// alters any simulated figure fails the correctness check.
const figureDigest = "68af8b05e599f59548bebf6ac386c1f68c6ff15b761cb4851f448b7518a492d0"

// figures lists the paper figures in the order scatter-bench prints them.
var figures = []struct {
	name string
	run  func() experiments.Report
}{
	{"fig2", func() experiments.Report { _, r := experiments.Fig2(simDuration); return r }},
	{"fig3", func() experiments.Report { _, r := experiments.Fig3(simDuration); return r }},
	{"fig4", func() experiments.Report { _, r := experiments.Fig4(simDuration); return r }},
	{"fig6", func() experiments.Report { _, r := experiments.Fig6(simDuration); return r }},
	{"fig7", func() experiments.Report { _, r := experiments.Fig7(simDuration); return r }},
	{"fig8", func() experiments.Report { _, r := experiments.Fig8(); return r }},
	{"fig9", func() experiments.Report { _, r := experiments.Fig9(simDuration); return r }},
	{"fig10", func() experiments.Report { _, r := experiments.Fig10(simDuration); return r }},
	{"fig11", func() experiments.Report { _, r := experiments.Fig11(simDuration); return r }},
	{"fig12", func() experiments.Report { _, r := experiments.Fig12(); return r }},
	{"headline", func() experiments.Report { _, r := experiments.Headline(simDuration); return r }},
	{"appaware", func() experiments.Report { _, r := experiments.AppAware(simDuration); return r }},
	{"ablations", func() experiments.Report { return experiments.Ablations(simDuration) }},
	{"variance", func() experiments.Report { _, r := experiments.SeedSensitivity(simDuration, 5); return r }},
}

// simResult is the outcome of one regeneration of every figure.
type simResult struct {
	wall    time.Duration
	perFig  map[string]time.Duration
	digest  string
	correct bool
	note    string
}

// runFigures regenerates every figure once, timing each, and checks the
// digest of all their tables against figureDigest. It starts from a
// collected heap, so earlier phases of the run do not pace its GC.
func runFigures() simResult {
	runtime.GC()
	res := simResult{perFig: make(map[string]time.Duration, len(figures))}
	h := sha256.New()
	start := time.Now()
	for _, f := range figures {
		t0 := time.Now()
		rep := f.run()
		res.perFig[f.name] = time.Since(t0)
		for _, t := range rep.Tables {
			fmt.Fprintf(h, "%s|%s|%q|%q\n", rep.ID, t.Title, t.Header, t.Rows)
		}
	}
	res.wall = time.Since(start)
	res.digest = hex.EncodeToString(h.Sum(nil))
	res.correct = res.digest == figureDigest
	return res
}

// medianFigures combines several regenerations: the median of each wall
// time, correct only if every regeneration matched the digest.
func medianFigures(rs []simResult) simResult {
	out := simResult{perFig: make(map[string]time.Duration, len(figures)), correct: true}
	var walls []float64
	var each []string
	for _, r := range rs {
		each = append(each, fmt.Sprintf("%.3f", r.wall.Seconds()))
		walls = append(walls, float64(r.wall))
		out.correct = out.correct && r.correct
		if !r.correct {
			out.digest = r.digest
		}
	}
	out.wall = time.Duration(median(walls))
	out.note = "figure regenerations took " + strings.Join(each, ", ") + " s"
	for _, f := range figures {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, float64(r.perFig[f.name]))
		}
		out.perFig[f.name] = time.Duration(median(xs))
	}
	return out
}
