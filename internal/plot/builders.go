package plot

import (
	"sort"

	"pos/internal/eval"
)

// Throughput builds the Fig. 3-style line plot: received Mpps over offered
// Mpps, one line per packet size.
func Throughput(title string, series []eval.Series) *Figure {
	labeled := make([]eval.Series, len(series))
	for i, s := range series {
		labeled[i] = eval.Series{Name: s.Name + " B", Points: s.Points}
	}
	return &Figure{
		Title:  title,
		XLabel: "offered rate [Mpps]",
		YLabel: "received rate [Mpps]",
		Kind:   Line,
		Series: labeled,
	}
}

// LatencyCDF builds a latency CDF from nanosecond samples, plotted in µs.
func LatencyCDF(title string, samplesNs map[string][]float64) *Figure {
	f := &Figure{
		Title:  title,
		XLabel: "latency [µs]",
		YLabel: "CDF",
		Kind:   CDFKind,
	}
	for name, xs := range samplesNs {
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x / 1000
		}
		f.Series = append(f.Series, eval.Series{Name: name, Points: eval.CDF(scaled)})
	}
	sortSeries(f.Series)
	return f
}

// LatencyHistogram builds a latency histogram (µs) with the given bins.
func LatencyHistogram(title string, samplesNs []float64, bins int) *Figure {
	scaled := make([]float64, len(samplesNs))
	for i, x := range samplesNs {
		scaled[i] = x / 1000
	}
	return &Figure{
		Title:  title,
		XLabel: "latency [µs]",
		YLabel: "samples",
		Kind:   HistoKind,
		Series: []eval.Series{{Name: "latency", Points: eval.Histogram(scaled, bins)}},
	}
}

// LatencyHDR builds an HDR percentile plot (µs) — x axis in "number of
// nines".
func LatencyHDR(title string, samplesNs map[string][]float64) *Figure {
	f := &Figure{
		Title:  title,
		XLabel: "percentile [nines]",
		YLabel: "latency [µs]",
		Kind:   HDRKind,
	}
	for name, xs := range samplesNs {
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x / 1000
		}
		f.Series = append(f.Series, eval.Series{Name: name, Points: eval.HDR(scaled, eval.HDRQuantiles)})
	}
	sortSeries(f.Series)
	return f
}

// LatencyViolin builds a violin figure comparing latency distributions (µs).
func LatencyViolin(title string, samplesNs map[string][]float64) *Figure {
	f := &Figure{
		Title:  title,
		XLabel: "",
		YLabel: "latency [µs]",
		Kind:   Violin,
	}
	var names []string
	for name := range samplesNs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := samplesNs[name]
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x / 1000
		}
		f.Violins = append(f.Violins, NamedViolin{Name: name, Violin: eval.ViolinStats(scaled, 24)})
	}
	return f
}

func sortSeries(ss []eval.Series) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Name < ss[j].Name })
}

// Export renders a figure into every supported format, keyed by file
// extension ("svg", "tex", "csv") — the multi-format export the paper's
// plotting scripts perform.
func Export(f *Figure) map[string][]byte {
	return map[string][]byte{
		"svg": f.svg(),
		"tex": f.tex(),
		"csv": f.csv(),
	}
}

// ExportNamed renders a figure to "<base>.<ext>" filename/content pairs.
func ExportNamed(base string, f *Figure) map[string][]byte {
	out := make(map[string][]byte, 3)
	for ext, data := range Export(f) {
		out[base+"."+ext] = data
	}
	return out
}
