package plot

import (
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pos/internal/eval"
)

func sampleSeries() []eval.Series {
	return []eval.Series{
		{Name: "64", Points: []eval.Point{{X: 0.01, Y: 0.01}, {X: 0.02, Y: 0.02}, {X: 0.3, Y: 0.04}}},
		{Name: "1500", Points: []eval.Point{{X: 0.01, Y: 0.01}, {X: 0.02, Y: 0.02}, {X: 0.3, Y: 0.035}}},
	}
}

func TestThroughputFigureSVGWellFormed(t *testing.T) {
	f := Throughput("Fig 3a", sampleSeries())
	svg := string(Export(f)["svg"])
	// Structural checks.
	for _, want := range []string{"<svg", "</svg>", "Fig 3a", "offered rate [Mpps]", "received rate [Mpps]", "64 B", "1500 B", "<path", "<circle"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Must be valid XML.
	if err := xml.Unmarshal([]byte(svg), new(any)); err != nil {
		t.Errorf("SVG is not well-formed XML: %v", err)
	}
}

func TestSVGEscapesLabels(t *testing.T) {
	f := &Figure{Title: `a<b & "c"`, Kind: Line, Series: sampleSeries()}
	svg := string(Export(f)["svg"])
	if strings.Contains(svg, `a<b`) {
		t.Error("unescaped < in SVG")
	}
	if err := xml.Unmarshal([]byte(svg), new(any)); err != nil {
		t.Errorf("escaped SVG invalid: %v", err)
	}
}

func TestEmptyFigureStillRenders(t *testing.T) {
	f := &Figure{Title: "empty", Kind: Line}
	svg := string(Export(f)["svg"])
	if !strings.Contains(svg, "</svg>") {
		t.Error("empty figure did not render")
	}
	if err := xml.Unmarshal([]byte(svg), new(any)); err != nil {
		t.Errorf("empty SVG invalid: %v", err)
	}
}

func TestCSVFormat(t *testing.T) {
	f := Throughput("t", sampleSeries())
	csv := string(Export(f)["csv"])
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "series,x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 7 { // header + 6 points
		t.Errorf("lines = %d:\n%s", len(lines), csv)
	}
	if !strings.Contains(csv, "64 B,0.01,0.01") {
		t.Errorf("csv = %s", csv)
	}
}

func TestTeXFormat(t *testing.T) {
	f := Throughput("fig_3a", sampleSeries())
	tex := string(Export(f)["tex"])
	for _, want := range []string{"\\begin{tikzpicture}", "\\begin{axis}", "\\addplot", "\\addlegendentry{64 B}", "(0.01, 0.01)", "fig\\_3a", "\\end{axis}"} {
		if !strings.Contains(tex, want) {
			t.Errorf("TeX missing %q:\n%s", want, tex)
		}
	}
}

func TestCDFFigure(t *testing.T) {
	f := LatencyCDF("latency", map[string][]float64{
		"pos": {10000, 20000, 30000},
	})
	if f.Kind != CDFKind {
		t.Errorf("kind = %s", f.Kind)
	}
	// ns -> µs conversion.
	if got := f.Series[0].Points[0].X; got != 10 {
		t.Errorf("first point X = %v, want 10µs", got)
	}
	tex := string(Export(f)["tex"])
	if !strings.Contains(tex, "const plot") {
		t.Error("CDF TeX missing step-plot style")
	}
}

func TestHistogramFigure(t *testing.T) {
	f := LatencyHistogram("hist", []float64{1000, 2000, 2000, 3000}, 3)
	svg := string(Export(f)["svg"])
	if !strings.Contains(svg, "<rect") {
		t.Error("histogram has no bars")
	}
	if !strings.Contains(string(Export(f)["tex"]), "ybar") {
		t.Error("histogram TeX missing ybar")
	}
}

func TestHDRFigure(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i) * 1000
	}
	f := LatencyHDR("hdr", map[string][]float64{"pos": samples})
	pts := f.Series[0].Points
	if len(pts) != len(eval.HDRQuantiles) {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Error("HDR curve decreasing")
		}
	}
}

func TestViolinFigure(t *testing.T) {
	f := LatencyViolin("violin", map[string][]float64{
		"pos":  {1000, 2000, 2000, 3000, 4000},
		"vpos": {50000, 60000, 60000, 70000},
	})
	if len(f.Violins) != 2 {
		t.Fatalf("violins = %d", len(f.Violins))
	}
	// Sorted by name.
	if f.Violins[0].Name != "pos" || f.Violins[1].Name != "vpos" {
		t.Errorf("order = %s/%s", f.Violins[0].Name, f.Violins[1].Name)
	}
	svg := string(Export(f)["svg"])
	if !strings.Contains(svg, "fill-opacity") {
		t.Error("violin bodies missing")
	}
	if err := xml.Unmarshal([]byte(svg), new(any)); err != nil {
		t.Errorf("violin SVG invalid: %v", err)
	}
	csv := string(Export(f)["csv"])
	for _, want := range []string{"pos,median,", "vpos,q1,", "vpos,max,"} {
		if !strings.Contains(csv, want) {
			t.Errorf("violin CSV missing %q", want)
		}
	}
}

func TestExportNamed(t *testing.T) {
	f := Throughput("t", sampleSeries())
	files := ExportNamed("throughput", f)
	for _, name := range []string{"throughput.svg", "throughput.tex", "throughput.csv"} {
		if len(files[name]) == 0 {
			t.Errorf("missing %s", name)
		}
	}
	if len(files) != 3 {
		t.Errorf("files = %d", len(files))
	}
}

func TestTicksAreRounded(t *testing.T) {
	got := ticks(0, 1, 6)
	if len(got) < 4 {
		t.Fatalf("ticks = %v", got)
	}
	for _, tick := range got {
		if tick < 0 || tick > 1.001 {
			t.Errorf("tick %v out of range", tick)
		}
	}
	// Degenerate range.
	if got := ticks(5, 5, 6); len(got) != 1 {
		t.Errorf("degenerate ticks = %v", got)
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{0: "0", 0.5: "0.5", 1: "1", 2.5: "2.5", 1e7: "1e+07"}
	for v, want := range cases {
		if got := fmtTick(v); got != want {
			t.Errorf("fmtTick(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestNoErrColumnWithoutErrors: a point is an (x, y) pair, so the CSV has
// three columns and the TeX plot carries marks, never error bars.
func TestNoErrColumnWithoutErrors(t *testing.T) {
	files := Export(Throughput("t", sampleSeries()))
	if csv := string(files["csv"]); !strings.HasPrefix(csv, "series,x,y\n") || strings.Contains(csv, "yerr") {
		t.Errorf("csv = %q", csv)
	}
	if tex := string(files["tex"]); strings.Contains(tex, "error bars") || !strings.Contains(tex, "\\addplot+[mark=*]") {
		t.Errorf("tex = %q", tex)
	}
}

// oracleFigures builds every kind of figure from seeded data laced with the
// values number formatting gets wrong first.
func oracleFigures() map[string]*Figure {
	rng := rand.New(rand.NewSource(22))
	nasty := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 1e21, -1e-7, 0.05, 123456.789, 1e6, 999999.5}
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(20000 + 5000*rng.ExpFloat64())
		}
		return xs
	}
	series := func() []eval.Series {
		var out []eval.Series
		for _, name := range []string{"64", "a<b&\"c\"_%#"} {
			var pts []eval.Point
			for i, y := range nasty {
				pts = append(pts, eval.Point{X: float64(i) / 3, Y: y})
			}
			for i := 0; i < 40; i++ {
				pts = append(pts, eval.Point{X: rng.Float64() * 14.88, Y: rng.Float64() * 14.88})
			}
			out = append(out, eval.Series{Name: name, Points: pts})
		}
		return out
	}
	dists := map[string][]float64{
		"pkt_rate=100000,pkt_sz=64":   samples(1000),
		"pkt_rate=100000,pkt_sz=1500": samples(1000),
		"nasty":                       nasty,
		"one":                         {1500},
		"none":                        nil,
	}
	finite := map[string][]float64{"pos": samples(1000), "vpos": samples(37), "flat": {7, 7, 7}}
	figs := map[string]*Figure{
		"throughput":       Throughput("Fig. 3a <&>", series()),
		"throughput-nasty": Throughput("fig_3b 100%", series()),
		"cdf":              LatencyCDF("latency", dists),
		"histogram":        LatencyHistogram("hist", samples(1000), 24),
		"histogram-nasty":  LatencyHistogram("hist", nasty, 5),
		"hdr":              LatencyHDR("hdr", dists),
		"violin":           LatencyViolin("violin", finite),
		"violin-nasty":     LatencyViolin("violin", dists),
		"empty":            {Title: "empty", Kind: Line},
	}
	figs["cdf-sized"] = LatencyCDF("sized", finite)
	figs["cdf-sized"].Width, figs["cdf-sized"].Height = 1280, 333
	return figs
}

func TestRenderersMatchFmtOracle(t *testing.T) {
	for name, f := range oracleFigures() {
		want := map[string]string{"svg": refSVG(f), "tex": refTeX(f), "csv": refCSV(f)}
		got := Export(f)
		if len(got) != len(want) {
			t.Errorf("%s: Export has %d formats, want %d", name, len(got), len(want))
		}
		for ext, w := range want {
			if string(got[ext]) != w {
				t.Errorf("%s.%s differs from the fmt oracle:\n%s", name, ext, firstDiff(string(got[ext]), w))
			}
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 0.5, 1, 2.5, 999999.994, 999999.996, 1e6, 1e7, -3.14159, 1e-7, 1e21, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, want := fmtTick(v), refFmtTick(v); got != want {
			t.Errorf("fmtTick(%v) = %q, oracle %q", v, got, want)
		}
	}
}

func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, i-40)
	return fmt.Sprintf("at byte %d:\n got  …%q\n want …%q", i, got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
}

// A figure's cost in allocations must not grow with its points: a handful
// per document, not one boxed float per coordinate.
func TestExportAllocationsIndependentOfPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(rng.Intn(1 << 20))
	}
	dists := map[string][]float64{"pos": samples}
	if n := len(LatencyCDF("latency", dists).Series[0].Points); n < 900 {
		t.Fatalf("CDF has %d distinct points, want ~1000", n)
	}
	allocs := testing.AllocsPerRun(20, func() { Export(LatencyCDF("latency", dists)) })
	if allocs > 100 {
		t.Errorf("Export(LatencyCDF(1000 samples)) = %.0f allocs, want <= 100", allocs)
	}
}

// FuzzAppendTenths holds the integer %.1f to strconv over the whole float64
// range; the seeds sit on the branches: exact ties either side of even, their
// neighbours, the 2^52 hand-over, the round-to-zero cut-off, and non-numbers.
func FuzzAppendTenths(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 0.05, 0.25, 0.75, 0.125, 2.5, 3.5, -0.25, -0.04, 0.95, 9.95, 99.95, 639.96,
		math.Nextafter(0.25, 0), math.Nextafter(0.25, 1), math.Nextafter(0.75, 0), math.Nextafter(0.75, 1),
		1 << 52, 1<<52 - 0.5, 1<<52 - 1.5, 1 << 53, 1e21, 1e-7, 0x1p-57, 0x1p-58, 0x1.fffffffffffffp-5,
		5e-324, 0x1p-1022, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got := appendTenths([]byte("x"), v)
		if want := strconv.AppendFloat([]byte("x"), v, 'f', 1, 64); string(got) != string(want) {
			t.Fatalf("appendTenths(%b) = %q, strconv %q", v, got, want)
		}
	})
}

// The exact ties of the tenths grid are the odd multiples of 1/4; walk a finer
// dyadic grid so each is hit, rounding up and down to even, with both
// neighbours, then a seeded sweep of pixel-sized values and raw bit patterns.
func TestAppendTenthsMatchesStrconv(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		for _, v := range []float64{v, -v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			got, want := appendTenths(nil, v), strconv.AppendFloat(nil, v, 'f', 1, 64)
			if string(got) != string(want) {
				t.Fatalf("appendTenths(%b) = %q, strconv %q", v, got, want)
			}
		}
	}
	for n := 0; n < 1<<15; n++ {
		check(float64(n) / 32)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 30_000; i++ {
		check(rng.Float64() * 2000)
	}
	for i := 0; i < 3_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
}

// The fmt-based renderers the append-style ones replaced, verbatim: the
// oracle TestRenderersMatchFmtOracle holds every output byte to.

func refFmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case av >= 1:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func refEsc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func refSVG(f *Figure) string {
	w, h := f.dims()
	xmin, xmax, ymin, ymax := f.bounds()
	plotW, plotH := float64(w-padL-padR), float64(h-padT-padB)
	xpos := func(x float64) float64 { return padL + (x-xmin)/(xmax-xmin)*plotW }
	ypos := func(y float64) float64 { return float64(h-padB) - (y-ymin)/(ymax-ymin)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&b, `<text x="%d" y="22" font-family="sans-serif" font-size="15" text-anchor="middle">%s</text>`+"\n", w/2, refEsc(f.Title))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", padL, h-padB, w-padR, h-padB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", padL, padT, padL, h-padB)
	for _, t := range ticks(xmin, xmax, 6) {
		x := xpos(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n", x, h-padB, x, h-padB+5)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n", x, h-padB+18, refFmtTick(t))
	}
	for _, t := range ticks(ymin, ymax, 6) {
		y := ypos(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`+"\n", padL-5, y, padL, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n", padL-8, y+4, refFmtTick(t))
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#dddddd"/>`+"\n", padL, y, w-padR, y)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle">%s</text>`+"\n", w/2, h-12, refEsc(f.XLabel))
	fmt.Fprintf(&b, `<text x="16" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n", h/2, h/2, refEsc(f.YLabel))

	switch f.Kind {
	case Violin:
		refRenderViolins(f, &b, xpos, ypos)
	case HistoKind:
		refRenderBars(f, &b, xpos, ypos, h)
	default:
		refRenderLines(f, &b, xpos, ypos)
	}

	// Legend.
	ly := padT + 4
	for i, s := range f.Series {
		color := Palette[i%len(Palette)]
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`+"\n", w-padR-120, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12">%s</text>`+"\n", w-padR-104, ly+10, refEsc(s.Name))
		ly += 18
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func refRenderLines(f *Figure, b *strings.Builder, xpos, ypos func(float64) float64) {
	for i, s := range f.Series {
		color := Palette[i%len(Palette)]
		var path strings.Builder
		for j, p := range s.Points {
			cmd := "L"
			if j == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, xpos(p.X), ypos(p.Y))
		}
		fmt.Fprintf(b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.8"/>`+"\n", strings.TrimSpace(path.String()), color)
		for _, p := range s.Points {
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="2.4" fill="%s"/>`+"\n", xpos(p.X), ypos(p.Y), color)
		}
	}
}

func refRenderBars(f *Figure, b *strings.Builder, xpos, ypos func(float64) float64, h int) {
	for i, s := range f.Series {
		color := Palette[i%len(Palette)]
		width := 8.0
		if len(s.Points) > 1 {
			width = math.Max(2, (xpos(s.Points[1].X)-xpos(s.Points[0].X))*0.8)
		}
		for _, p := range s.Points {
			y := ypos(p.Y)
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" fill-opacity="0.75"/>`+"\n",
				xpos(p.X)-width/2, y, width, float64(h-padB)-y, color)
		}
	}
}

func refRenderViolins(f *Figure, b *strings.Builder, xpos, ypos func(float64) float64) {
	halfWidth := 0.35
	for i, nv := range f.Violins {
		color := Palette[i%len(Palette)]
		cx := float64(i)
		if len(nv.Violin.Profile) > 1 {
			var path strings.Builder
			// Right side down, left side up.
			for j, p := range nv.Violin.Profile {
				cmd := "L"
				if j == 0 {
					cmd = "M"
				}
				fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, xpos(cx+p.Y*halfWidth), ypos(p.X))
			}
			for j := len(nv.Violin.Profile) - 1; j >= 0; j-- {
				p := nv.Violin.Profile[j]
				fmt.Fprintf(&path, "L%.1f %.1f ", xpos(cx-p.Y*halfWidth), ypos(p.X))
			}
			fmt.Fprintf(b, `<path d="%sZ" fill="%s" fill-opacity="0.5" stroke="%s"/>`+"\n", strings.TrimSpace(path.String()), color, color)
		}
		// Quartile box and median tick.
		fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="3"/>`+"\n",
			xpos(cx), ypos(nv.Violin.Q1), xpos(cx), ypos(nv.Violin.Q3))
		fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="3" fill="white" stroke="black"/>`+"\n",
			xpos(cx), ypos(nv.Violin.Summary.Median))
		fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			xpos(cx), ypos(0)+32, refEsc(nv.Name))
	}
}

func refCSV(f *Figure) string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%g,%g\n", s.Name, p.X, p.Y)
		}
	}
	for _, nv := range f.Violins {
		v := nv.Violin
		fmt.Fprintf(&b, "%s,min,%g\n", nv.Name, v.Summary.Min)
		fmt.Fprintf(&b, "%s,q1,%g\n", nv.Name, v.Q1)
		fmt.Fprintf(&b, "%s,median,%g\n", nv.Name, v.Summary.Median)
		fmt.Fprintf(&b, "%s,q3,%g\n", nv.Name, v.Q3)
		fmt.Fprintf(&b, "%s,max,%g\n", nv.Name, v.Summary.Max)
	}
	return b.String()
}

func refTeX(f *Figure) string {
	var b strings.Builder
	b.WriteString("\\begin{tikzpicture}\n\\begin{axis}[\n")
	fmt.Fprintf(&b, "  title={%s},\n  xlabel={%s},\n  ylabel={%s},\n", refTexEsc(f.Title), refTexEsc(f.XLabel), refTexEsc(f.YLabel))
	b.WriteString("  legend pos=north west,\n]\n")
	for _, s := range f.Series {
		switch f.Kind {
		case HistoKind:
			b.WriteString("\\addplot+[ybar] coordinates {\n")
		case CDFKind:
			b.WriteString("\\addplot+[const plot] coordinates {\n")
		default:
			b.WriteString("\\addplot+[mark=*] coordinates {\n")
		}
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  (%g, %g)\n", p.X, p.Y)
		}
		b.WriteString("};\n")
		fmt.Fprintf(&b, "\\addlegendentry{%s}\n", refTexEsc(s.Name))
	}
	b.WriteString("\\end{axis}\n\\end{tikzpicture}\n")
	return b.String()
}

func refTexEsc(s string) string {
	r := strings.NewReplacer("_", "\\_", "%", "\\%", "&", "\\&", "#", "\\#")
	return r.Replace(s)
}
