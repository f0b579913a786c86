// Package plot renders the out-of-the-box figures the pos evaluation phase
// produces: line plots (throughput over offered rate, Fig. 3), histograms,
// CDFs, HDR latency curves, and violin plots. Each figure renders to SVG,
// TeX (pgfplots), and CSV — the "multiple formats" the paper names —
// without external dependencies.
package plot

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"pos/internal/eval"
)

// Kind selects the plot geometry.
type Kind string

// Supported plot kinds (Sec. 4.4 lists exactly these representations).
const (
	Line      Kind = "line"
	HistoKind Kind = "histogram"
	CDFKind   Kind = "cdf"
	HDRKind   Kind = "hdr"
	Violin    Kind = "violin"
)

// Figure is a renderable chart.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Kind   Kind
	Series []eval.Series
	// Violins is used only by Kind == Violin.
	Violins []NamedViolin
	// Width and Height in SVG pixels; zero values default to 640x400.
	Width, Height int
}

// NamedViolin pairs a distribution summary with its category label.
type NamedViolin struct {
	Name   string
	Violin eval.Violin
}

const (
	defaultW = 640
	defaultH = 400
	padL     = 70
	padR     = 20
	padT     = 40
	padB     = 55
)

// Palette is the series color cycle (Okabe-Ito, color-blind safe).
var Palette = []string{"#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9", "#F0E442"}

func (f *Figure) dims() (w, h int) {
	w, h = f.Width, f.Height
	if w <= 0 {
		w = defaultW
	}
	if h <= 0 {
		h = defaultH
	}
	return w, h
}

// bounds computes the data range across all series.
func (f *Figure) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	add := func(x, y float64) {
		xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
		ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			add(p.X, p.Y-p.YErr)
			add(p.X, p.Y+p.YErr)
		}
	}
	for i, v := range f.Violins {
		add(float64(i), v.Violin.Summary.Min)
		add(float64(i), v.Violin.Summary.Max)
	}
	if math.IsInf(xmin, 1) {
		xmin, xmax, ymin, ymax = 0, 1, 0, 1
	}
	if xmin == xmax {
		xmax = xmin + 1
	}
	if ymin == ymax {
		ymax = ymin + 1
	}
	// Anchor throughput-style plots at zero for honest proportions.
	if ymin > 0 {
		ymin = 0
	}
	return
}

// ticks produces ~n nicely rounded tick positions across [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	span := hi - lo
	if span <= 0 || math.IsNaN(span) || math.IsInf(span, 0) {
		return []float64{lo}
	}
	raw := span / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi+step/1e6; t += step {
		out = append(out, t)
	}
	return out
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1 && av < 1e6:
		return strings.TrimRight(strings.TrimRight(strconv.FormatFloat(v, 'f', 2, 64), "0"), ".")
	default:
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
}

var (
	svgEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	texEscaper = strings.NewReplacer("_", "\\_", "%", "\\%", "&", "\\&", "#", "\\#")
)

// doc is the one byte slice a figure renders into. SVG pixels are written
// with one decimal and data values in their shortest form — byte for byte
// what fmt's %.1f and %g print, without fmt's per-call argument boxing and
// verb parsing on every point.
type doc []byte

func (d *doc) str(s string) *doc    { *d = append(*d, s...); return d }
func (d *doc) int(n int) *doc       { *d = strconv.AppendInt(*d, int64(n), 10); return d }
func (d *doc) px(v float64) *doc    { *d = appendTenths(*d, v); return d }
func (d *doc) num(v float64) *doc   { *d = strconv.AppendFloat(*d, v, 'g', -1, 64); return d }
func (d *doc) esc(s string) *doc    { return d.str(svgEscaper.Replace(s)) }
func (d *doc) texEsc(s string) *doc { return d.str(texEscaper.Replace(s)) }

// appendTenths is strconv.AppendFloat(b, v, 'f', 1, 64). strconv has no fast
// path for a fixed number of decimals and converts through multi-precision
// decimal arithmetic, several hundred nanoseconds a coordinate; for a normal
// number below 2^52 the same digits come out of one 64-bit multiply: with
// v = m / 2^shift exactly, round-half-even(10m / 2^shift) is the tenths.
func appendTenths(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp := int(bits >> 52 & 0x7ff)
	if exp == 0 || exp >= 1023+52 {
		return strconv.AppendFloat(b, v, 'f', 1, 64) // zero, subnormal, integral, Inf, NaN
	}
	var tenths uint64
	// Past 57 bits of shift 10m is below half a tenth: it rounds to zero.
	if shift := uint(1023 + 52 - exp); shift <= 57 {
		scaled := 10 * (bits&(1<<52-1) | 1<<52) // 10m < 2^57
		tenths = scaled >> shift
		rest, half := scaled&(1<<shift-1), uint64(1)<<(shift-1)
		if rest > half || rest == half && tenths&1 == 1 {
			tenths++
		}
	}
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, tenths/10, 10)
	return append(b, '.', byte('0'+tenths%10))
}

// points counts the figure's series points, for sizing a document up front.
func (f *Figure) points() int {
	n := 0
	for _, s := range f.Series {
		n += len(s.Points)
	}
	return n
}

// hasYErr reports whether any point of s carries aggregation error.
func hasYErr(s eval.Series) bool {
	for _, p := range s.Points {
		if p.YErr > 0 {
			return true
		}
	}
	return false
}

// SVG renders the figure as a standalone SVG document.
func (f *Figure) SVG() string { return string(f.svg()) }

func (f *Figure) svg() []byte {
	w, h := f.dims()
	xmin, xmax, ymin, ymax := f.bounds()
	plotW, plotH := float64(w-padL-padR), float64(h-padT-padB)
	xpos := func(x float64) float64 { return padL + (x-xmin)/(xmax-xmin)*plotW }
	ypos := func(y float64) float64 { return float64(h-padB) - (y-ymin)/(ymax-ymin)*plotH }

	// A point costs a path segment and a marker, ~70 bytes.
	b := make(doc, 0, 4096+72*f.points())
	b.str(`<svg xmlns="http://www.w3.org/2000/svg" width="`).int(w).str(`" height="`).int(h).
		str(`" viewBox="0 0 `).int(w).str(" ").int(h).str(`">` + "\n")
	b.str(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	b.str(`<text x="`).int(w / 2).str(`" y="22" font-family="sans-serif" font-size="15" text-anchor="middle">`).
		esc(f.Title).str("</text>\n")

	// Axes.
	b.str(`<line x1="`).int(padL).str(`" y1="`).int(h - padB).str(`" x2="`).int(w - padR).str(`" y2="`).int(h - padB).
		str(`" stroke="black"/>` + "\n")
	b.str(`<line x1="`).int(padL).str(`" y1="`).int(padT).str(`" x2="`).int(padL).str(`" y2="`).int(h - padB).
		str(`" stroke="black"/>` + "\n")
	for _, t := range ticks(xmin, xmax, 6) {
		x := xpos(t)
		b.str(`<line x1="`).px(x).str(`" y1="`).int(h - padB).str(`" x2="`).px(x).str(`" y2="`).int(h - padB + 5).
			str(`" stroke="black"/>` + "\n")
		b.str(`<text x="`).px(x).str(`" y="`).int(h - padB + 18).
			str(`" font-family="sans-serif" font-size="11" text-anchor="middle">`).str(fmtTick(t)).str("</text>\n")
	}
	for _, t := range ticks(ymin, ymax, 6) {
		y := ypos(t)
		b.str(`<line x1="`).int(padL - 5).str(`" y1="`).px(y).str(`" x2="`).int(padL).str(`" y2="`).px(y).
			str(`" stroke="black"/>` + "\n")
		b.str(`<text x="`).int(padL - 8).str(`" y="`).px(y + 4).
			str(`" font-family="sans-serif" font-size="11" text-anchor="end">`).str(fmtTick(t)).str("</text>\n")
		b.str(`<line x1="`).int(padL).str(`" y1="`).px(y).str(`" x2="`).int(w - padR).str(`" y2="`).px(y).
			str(`" stroke="#dddddd"/>` + "\n")
	}
	b.str(`<text x="`).int(w / 2).str(`" y="`).int(h - 12).
		str(`" font-family="sans-serif" font-size="13" text-anchor="middle">`).esc(f.XLabel).str("</text>\n")
	b.str(`<text x="16" y="`).int(h / 2).
		str(`" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 16 `).int(h / 2).
		str(`)">`).esc(f.YLabel).str("</text>\n")

	switch f.Kind {
	case Violin:
		f.renderViolins(&b, xpos, ypos)
	case HistoKind:
		f.renderBars(&b, xpos, ypos, h)
	default:
		f.renderLines(&b, xpos, ypos)
	}

	// Legend.
	ly := padT + 4
	for i, s := range f.Series {
		color := Palette[i%len(Palette)]
		b.str(`<rect x="`).int(w - padR - 120).str(`" y="`).int(ly).str(`" width="12" height="12" fill="`).str(color).
			str(`"/>` + "\n")
		b.str(`<text x="`).int(w - padR - 104).str(`" y="`).int(ly + 10).
			str(`" font-family="sans-serif" font-size="12">`).esc(s.Name).str("</text>\n")
		ly += 18
	}
	b.str("</svg>\n")
	return b
}

// line appends one stroked segment in the series color.
func (d *doc) line(x1, y1, x2, y2 float64, color string) {
	d.str(`<line x1="`).px(x1).str(`" y1="`).px(y1).str(`" x2="`).px(x2).str(`" y2="`).px(y2).
		str(`" stroke="`).str(color).str(`" stroke-width="1.2"/>` + "\n")
}

func (f *Figure) renderLines(b *doc, xpos, ypos func(float64) float64) {
	for i, s := range f.Series {
		color := Palette[i%len(Palette)]
		b.str(`<path d="`)
		for j, p := range s.Points {
			if j == 0 {
				b.str("M")
			} else {
				b.str(" L")
			}
			b.px(xpos(p.X)).str(" ").px(ypos(p.Y))
		}
		b.str(`" fill="none" stroke="`).str(color).str(`" stroke-width="1.8"/>` + "\n")
		for _, p := range s.Points {
			x, y := xpos(p.X), ypos(p.Y)
			// Error bars from aggregated repetitions.
			if p.YErr > 0 {
				lo, hi := ypos(p.Y-p.YErr), ypos(p.Y+p.YErr)
				b.line(x, lo, x, hi, color)
				b.line(x-3, lo, x+3, lo, color)
				b.line(x-3, hi, x+3, hi, color)
			}
			b.str(`<circle cx="`).px(x).str(`" cy="`).px(y).str(`" r="2.4" fill="`).str(color).str(`"/>` + "\n")
		}
	}
}

func (f *Figure) renderBars(b *doc, xpos, ypos func(float64) float64, h int) {
	for i, s := range f.Series {
		color := Palette[i%len(Palette)]
		width := 8.0
		if len(s.Points) > 1 {
			width = math.Max(2, (xpos(s.Points[1].X)-xpos(s.Points[0].X))*0.8)
		}
		for _, p := range s.Points {
			y := ypos(p.Y)
			b.str(`<rect x="`).px(xpos(p.X) - width/2).str(`" y="`).px(y).str(`" width="`).px(width).
				str(`" height="`).px(float64(h-padB) - y).str(`" fill="`).str(color).str(`" fill-opacity="0.75"/>` + "\n")
		}
	}
}

func (f *Figure) renderViolins(b *doc, xpos, ypos func(float64) float64) {
	halfWidth := 0.35
	for i, nv := range f.Violins {
		color := Palette[i%len(Palette)]
		cx := float64(i)
		if profile := nv.Violin.Profile; len(profile) > 1 {
			// Right side down, left side up.
			b.str(`<path d="`)
			for j, p := range profile {
				if j == 0 {
					b.str("M")
				} else {
					b.str(" L")
				}
				b.px(xpos(cx + p.Y*halfWidth)).str(" ").px(ypos(p.X))
			}
			for j := len(profile) - 1; j >= 0; j-- {
				p := profile[j]
				b.str(" L").px(xpos(cx - p.Y*halfWidth)).str(" ").px(ypos(p.X))
			}
			b.str(`Z" fill="`).str(color).str(`" fill-opacity="0.5" stroke="`).str(color).str(`"/>` + "\n")
		}
		// Quartile box and median tick.
		b.str(`<line x1="`).px(xpos(cx)).str(`" y1="`).px(ypos(nv.Violin.Q1)).str(`" x2="`).px(xpos(cx)).
			str(`" y2="`).px(ypos(nv.Violin.Q3)).str(`" stroke="black" stroke-width="3"/>` + "\n")
		b.str(`<circle cx="`).px(xpos(cx)).str(`" cy="`).px(ypos(nv.Violin.Summary.Median)).
			str(`" r="3" fill="white" stroke="black"/>` + "\n")
		b.str(`<text x="`).px(xpos(cx)).str(`" y="`).px(ypos(0) + 32).
			str(`" font-family="sans-serif" font-size="11" text-anchor="middle">`).esc(nv.Name).str("</text>\n")
	}
}

// CSV renders the figure's data as comma-separated values: one row per
// point, with a series column. A yerr column appears when any point carries
// aggregation error.
func (f *Figure) CSV() string { return string(f.csv()) }

func (f *Figure) csv() []byte {
	hasErr, size := false, 32+160*len(f.Violins)
	for _, s := range f.Series {
		hasErr = hasErr || hasYErr(s)
		size += len(s.Points) * (len(s.Name) + 20)
	}
	b := make(doc, 0, size)
	if hasErr {
		b.str("series,x,y,yerr\n")
	} else {
		b.str("series,x,y\n")
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			b.str(s.Name).str(",").num(p.X).str(",").num(p.Y)
			if hasErr {
				b.str(",").num(p.YErr)
			}
			b.str("\n")
		}
	}
	for _, nv := range f.Violins {
		v := nv.Violin
		b.str(nv.Name).str(",min,").num(v.Summary.Min).str("\n")
		b.str(nv.Name).str(",q1,").num(v.Q1).str("\n")
		b.str(nv.Name).str(",median,").num(v.Summary.Median).str("\n")
		b.str(nv.Name).str(",q3,").num(v.Q3).str("\n")
		b.str(nv.Name).str(",max,").num(v.Summary.Max).str("\n")
	}
	return b
}

// TeX renders the figure as a pgfplots axis environment.
func (f *Figure) TeX() string { return string(f.tex()) }

func (f *Figure) tex() []byte {
	b := make(doc, 0, 512+24*f.points())
	b.str("\\begin{tikzpicture}\n\\begin{axis}[\n")
	b.str("  title={").texEsc(f.Title).str("},\n  xlabel={").texEsc(f.XLabel).str("},\n  ylabel={").texEsc(f.YLabel).str("},\n")
	b.str("  legend pos=north west,\n]\n")
	for _, s := range f.Series {
		hasErr := hasYErr(s)
		switch {
		case f.Kind == HistoKind:
			b.str("\\addplot+[ybar] coordinates {\n")
		case f.Kind == CDFKind:
			b.str("\\addplot+[const plot] coordinates {\n")
		case hasErr:
			b.str("\\addplot+[mark=*, error bars/.cd, y dir=both, y explicit] coordinates {\n")
		default:
			b.str("\\addplot+[mark=*] coordinates {\n")
		}
		for _, p := range s.Points {
			b.str("  (").num(p.X).str(", ").num(p.Y).str(")")
			if hasErr {
				b.str(" +- (0, ").num(p.YErr).str(")")
			}
			b.str("\n")
		}
		b.str("};\n")
		b.str("\\addlegendentry{").texEsc(s.Name).str("}\n")
	}
	b.str("\\end{axis}\n\\end{tikzpicture}\n")
	return b
}

// Sorted returns series names in render order, for tests and manifests.
func (f *Figure) Sorted() []string {
	names := make([]string, len(f.Series))
	for i, s := range f.Series {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
