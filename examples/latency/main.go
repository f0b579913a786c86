// Latency analysis on the bare-metal platform: sweep load levels on the
// Linux-router DuT, collect hardware-timestamped one-way latency samples,
// and render every distribution representation the pos evaluation phase
// ships — CDF, HDR percentile curve, histogram, and violin — to SVG/TeX/CSV.
// On vpos this experiment is impossible (no hardware timestamps); the
// program demonstrates that too.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"pos/internal/casestudy"
	"pos/internal/plot"
)

func main() {
	log.SetFlags(0)
	outDir, err := os.MkdirTemp("", "pos-latency-*")
	if err != nil {
		log.Fatal(err)
	}

	topo, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		log.Fatal(err)
	}
	defer topo.Close()

	// Three load levels: light, moderate, near saturation of the
	// 1.75 Mpps bare-metal forwarding limit.
	loads := []struct {
		label string
		rate  float64
	}{
		{"0.1 Mpps", 100_000},
		{"0.8 Mpps", 800_000},
		{"1.6 Mpps", 1_600_000},
	}
	samples := make(map[string][]float64, len(loads))
	for _, l := range loads {
		ns, err := topo.LatencySamples(64, l.rate, 1)
		if err != nil {
			log.Fatal(err)
		}
		sorted := append([]float64(nil), ns...)
		sort.Float64s(sorted)
		fmt.Printf("%s offered: %6d samples, p50 %.1f µs, p99 %.1f µs\n",
			l.label, len(ns), sorted[len(sorted)/2]/1000, sorted[len(sorted)*99/100]/1000)
		samples[l.label] = ns
	}

	figures := map[string]*plot.Figure{
		"latency-cdf":    plot.LatencyCDF("Forwarding latency CDF", samples),
		"latency-hdr":    plot.LatencyHDR("Forwarding latency percentiles", samples),
		"latency-violin": plot.LatencyViolin("Forwarding latency by load", samples),
		"latency-hist":   plot.LatencyHistogram("Latency at 0.8 Mpps", samples["0.8 Mpps"], 30),
	}
	for base, fig := range figures {
		for name, data := range plot.ExportNamed(base, fig) {
			path := filepath.Join(outDir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", path)
		}
	}

	// The vpos counterpoint: latency measurements are unavailable, while
	// throughput measurement still works.
	vtopo, err := casestudy.New(casestudy.Virtual)
	if err != nil {
		log.Fatal(err)
	}
	defer vtopo.Close()
	vp, err := vtopo.DirectRun(64, 20_000, 1)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := vtopo.LatencySamples(64, 20_000, 1); err != nil {
		fmt.Printf("\nvpos: rx %.3f Mpps, but: %v\n", vp.RxMpps, err)
		fmt.Println("(the paper: \"in our VM, we cannot generate latency measurements\")")
	} else {
		log.Fatal("vpos unexpectedly produced latency samples")
	}
}
