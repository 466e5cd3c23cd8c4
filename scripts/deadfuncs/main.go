// Command deadfuncs fails when the module declares a function that no
// program links.
//
// The roots are the binaries of ./cmd/..., ./examples/... and the
// nested perfbench module. It builds them with inlining off
// (-gcflags=all=-l), so every called function keeps its own symbol,
// and reads their symbols with go tool nm. It then walks every
// function declared outside _test.go files and package main and
// reports:
//
//   - a declared function that no root links;
//   - an internal package that no root imports;
//   - an allowlist entry that names no declared function, or one a
//     root links.
//
// Run it from the module root:
//
//	go run ./scripts/deadfuncs
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allow names the functions that stay although no root links them,
// keyed by linker symbol, each with the reason it stays.
var allow = map[string]string{
	"mpstream.RunContext":           "root facade: public API listed in README",
	"mpstream.TargetIDs":            "root facade: public API listed in README",
	"mpstream.OptimizeContext":      "root facade: public API listed in README",
	"mpstream.SearchStrategies":     "root facade: public API listed in README",
	"mpstream.SearchObjectives":     "root facade: public API listed in README",
	"mpstream.RunSurfaceContext":    "root facade: public API listed in README",
	"mpstream.NewService":           "root facade: public API listed in README",
	"mpstream.RunExperiment":        "root facade: public API listed in README",
	"mpstream.RunExperimentContext": "root facade: public API listed in README",

	"mpstream/internal/sim/cache.Stats.HitRate":            "LLC hit rate, to be surfaced in results (ROADMAP item 8(b))",
	"mpstream/internal/sim/dram.LoadedResult.AvgLatencyNs": "mean loaded latency, to be surfaced in results (ROADMAP item 8(b))",

	"mpstream/internal/obs.ValidateExposition": "test helper shared by the tests of several packages",
	"mpstream/internal/obs.SimStats":           "test helper shared by the tests of several packages",
}

// roots are the programs: package patterns with the module directory
// they are built in.
var roots = []struct {
	dir  string
	pkgs []string
}{
	{".", []string{"./cmd/...", "./examples/..."}},
	{"perfbench", []string{"."}},
}

type pkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
}

func main() {
	fails, err := check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadfuncs:", err)
		os.Exit(2)
	}
	sort.Strings(fails)
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
}

func check() ([]string, error) {
	tmp, err := os.MkdirTemp("", "deadfuncs")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	imported := map[string]bool{}
	for _, r := range roots {
		if _, err := goRun(r.dir, append([]string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}, r.pkgs...)...); err != nil {
			return nil, err
		}
		deps, err := goList(r.dir, append([]string{"-deps"}, r.pkgs...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			imported[p.ImportPath] = true
		}
	}
	linked, err := symbols(tmp)
	if err != nil {
		return nil, err
	}

	var fails []string
	pkgs, err := goList(".", "./...")
	if err != nil {
		return nil, err
	}
	declared := map[string]string{} // symbol -> position
	for _, p := range pkgs {
		if strings.Contains(p.ImportPath, "/internal/") && !imported[p.ImportPath] {
			fails = append(fails, "package "+p.ImportPath+": no program imports it")
		}
		if p.Name == "main" {
			continue
		}
		if err := declare(p, declared); err != nil {
			return nil, err
		}
	}
	for sym, pos := range declared {
		if !linked[sym] && allow[sym] == "" {
			fails = append(fails, pos+": "+sym+": no program links it")
		}
	}
	for sym := range allow {
		if _, ok := declared[sym]; !ok {
			fails = append(fails, "allowlist entry "+sym+": stale, no such function")
		} else if linked[sym] {
			fails = append(fails, "allowlist entry "+sym+": stale, a program links it")
		}
	}
	if len(fails) == 0 {
		fmt.Printf("deadfuncs: %d functions, all linked or allowlisted (%d allowlisted)\n", len(declared), len(allow))
	}
	return fails, nil
}

// goRun runs the go command in dir and returns its standard output;
// its standard error passes through.
func goRun(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return out, nil
}

func goList(dir string, args ...string) ([]pkg, error) {
	out, err := goRun(dir, append([]string{"list", "-json"}, args...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []pkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// symbols returns the text symbols of every binary in dir, with type
// arguments stripped so that an instantiated generic function reads
// as its declaration.
func symbols(dir string) (map[string]bool, error) {
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, b := range bins {
		out, err := goRun(".", "tool", "nm", filepath.Join(dir, b.Name()))
		if err != nil {
			return nil, err
		}
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			f := strings.Fields(sc.Text())
			if len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripTypeArgs(f[2])] = true
			}
		}
	}
	return linked, nil
}

func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declare adds the linker symbol of every function and method that
// p's non-test files declare, mapped to its source position.
func declare(p pkg, declared map[string]string) error {
	fset := token.NewFileSet()
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			sym := p.ImportPath + "." + fn.Name.Name
			if fn.Recv != nil {
				sym = p.ImportPath + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			declared[sym] = fset.Position(fn.Pos()).String()
		}
	}
	return nil
}

// recvName spells a receiver type the way the linker does: T or (*T),
// without type parameters.
func recvName(t ast.Expr) string {
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}
