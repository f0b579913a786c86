package pos_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// shippedOnlyByTests lists the exported functions and methods of non-test
// internal/ code that no shipped code calls, each kept for the reason given.
// A key is the package's path under internal/, then the receiver type for a
// method, then the name: "calendar.Calendar.Size".
var shippedOnlyByTests = map[string]string{
	// Seams through which tests drive or observe shipped behaviour.
	"casestudy.Topology.SetFaults": "tests inject a fault plan into a rig's hosts",
	"node.Node.InjectBootFailures": "tests make a node's next boots fail",
	"sim.FaultInjector.Injected":   "tests read which planned faults fired",
	"eval.ResetCache":              "tests start the evaluation cache cold",
	"telemetry.SetIDSeed":          "tests pin span and trace IDs",
	"sim.Engine.Steps":             "tests count the events an engine ran",
	"sim.Engine.RunUntil":          "tests stop an engine at a virtual instant",
	"sim.Engine.Step":              "tests single-step an engine",
	"sim.Ticker.Remaining":         "tests read a ticker's countdown",
	"testbed.Handle.BMCAddr":       "tests dial a node's management controller directly",
	"testbed.Handle.ShellAddr":     "tests dial a node's shell directly",
	"node.Node.BootedImage":        "tests read which image a node booted",
	"node.Node.Commands":           "tests read the commands a node ran",
	"node.Node.Getenv":             "tests read a node's environment",
	"api.Client.SetTimeout":        "tests shorten the client's deadline",
	"api.Client.Power":             "tests drive the power endpoint",
	"api.Client.Allocations":       "tests read the calendar over HTTP",
	"health.DecodeFlightRecord":    "tests read a dumped flight record back",
	// Paper features reached through an Example or a documented experiment.
	"casestudy.Topology.ReplayRun": "pcap replay (DESIGN row 11), shown by an Example",
	"netem.NewTap":                 "packet capture tap (DESIGN row 13), shown by an Example",
	"netem.Tap.In":                 "packet capture tap (DESIGN row 13), shown by an Example",
	"netem.Tap.Out":                "packet capture tap (DESIGN row 13), shown by an Example",
	"pcap.Reader.LinkType":         "pcap files (DESIGN row 31), shown by an Example",
	"pcap.Reader.Nanoseconds":      "pcap files (DESIGN row 31), shown by an Example",
	"casestudy.WithSwitch":         "switched topology, shown by an Example",
	"casestudy.WithGenerator":      "custom load generator, shown by an Example",
	"packet.LineRatePPS":           "line-rate ceiling, shown by an Example",
	// Callers that ROADMAP plans.
	"expfile.Save":              "ROADMAP item 4 archives the definition with it",
	"casestudy.Topology.Wiring": "ROADMAP item 4 archives the wiring that ran",
	"plot.LatencyHistogram":     "ROADMAP item 22 puts latency on the shipped flow",
	"plot.LatencyHDR":           "ROADMAP item 22 puts latency on the shipped flow",
	"plot.LatencyViolin":        "ROADMAP item 22 puts latency on the shipped flow",
	// Readers that tests use on the archive.
	"core.NumRuns":           "tests count a definition's runs",
	"core.UnmarshalLoopVars": "tests read a run's loop_vars back",
	"publish.Archive":        "TestArchiveAllocations measures the archive writer alone",
}

// stdInterfaceMethods are method names that satisfy a standard-library
// interface: their callers live in the standard library.
var stdInterfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestExportsHaveShippedCallers holds that shipped code has a shipped caller:
// every exported function or method declared in non-test internal/ code is
// referenced from non-test code of the module or of bench/, or is listed in
// shippedOnlyByTests with its reason. A listed entry that gains a shipped
// reference, or whose declaration is gone, is stale and fails too.
//
// The check parses, it does not type-check: a reference is a name in a call,
// an argument, an assigned or declared value, a return value, a composite
// literal element, or an interface's method list, outside the function's own
// body. Its blind spot follows: a name shared with any used identifier, in
// any package, counts as used.
func TestExportsHaveShippedCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string]token.Position{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, internal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				collectRefs(decl, "", used)
				continue
			}
			collectRefs(fn, fn.Name.Name, used)
			if !internal || !fn.Name.IsExported() {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				if stdInterfaceMethods[fn.Name.Name] {
					continue
				}
				key = pkg + "." + receiverType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			declared[key] = fset.Position(fn.Pos())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unreferenced []string
	for key, pos := range declared {
		if _, ok := shippedOnlyByTests[key]; !ok && !used[lastName(key)] {
			unreferenced = append(unreferenced, pos.String()+": "+key)
		}
	}
	sort.Strings(unreferenced)
	for _, u := range unreferenced {
		t.Errorf("%s is exported but no shipped code calls it: delete it, or list it in shippedOnlyByTests with a reason", u)
	}
	var stale []string
	for key := range shippedOnlyByTests {
		if _, ok := declared[key]; !ok {
			stale = append(stale, key+" is in shippedOnlyByTests but no longer declared")
		} else if used[lastName(key)] {
			stale = append(stale, key+" is in shippedOnlyByTests but shipped code now references it")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Error(s)
	}
}

// collectRefs adds to used every name node references in a reference
// position, except self (a function calling itself is not a caller).
func collectRefs(node ast.Node, self string, used map[string]bool) {
	add := func(e ast.Expr) {
		if name := refName(e); name != "" && name != self {
			used[name] = true
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			add(n.Fun)
			for _, a := range n.Args {
				add(a)
			}
		case *ast.AssignStmt:
			for _, e := range n.Rhs {
				add(e)
			}
		case *ast.ValueSpec:
			for _, e := range n.Values {
				add(e)
			}
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				add(e)
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				add(e)
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					used[name.Name] = true
				}
			}
		}
		return true
	})
}

// refName is the name an expression refers to: x, pkg.X or v.M, through
// parentheses, address-of and type arguments; "" for anything else.
func refName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// receiverType is the type name of a method receiver: T for T, *T, T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func lastName(key string) string { return key[strings.LastIndexByte(key, '.')+1:] }
