// Command reach is the reachability gate (make reach): it fails when
// non-test Go in this module declares a function that no product binary
// links and that scripts/reach.allow does not name.
//
// The declared set comes from `go list -json ./...` (so the go tool
// decides build tags and test files) parsed with go/ast, leaving out
// main packages, generic functions and init. The linked set is the text
// symbols `go tool nm` reads from every main package of the module and
// the benchmark module, built with inlining off (-gcflags=all=-l) so a
// function the optimiser folded into its caller still counts as linked.
// reach itself is not a product binary.
//
// Each allowlist line is "<symbol> <kind> <witness> <reason>", where the
// symbol is spelled as go tool nm prints it, and the kind is one of
//
//	oracle  a reference implementation the witness test compares against
//	hook    a fault or observation hook the witness test needs
//	api     root public API that the witness doc or example shows
//
// An oracle or hook witness must name a Test, Fuzz or Benchmark function
// some _test.go declares; an api witness must be a file of the
// repository that mentions the function. The gate also fails on an
// entry that is now linked or no longer declared, so the list cannot go
// stale.
//
//	go run ./scripts/reach                    # the gate
//	go run ./scripts/reach -tags reach_mutant # must fail (make mutants)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
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

const allowFile = "scripts/reach.allow"

// fn is one declared function.
type fn struct {
	sym, name, pos string
	lines          int
}

type pkg struct {
	ImportPath, Name, Dir              string
	GoFiles, TestGoFiles, XTestGoFiles []string
}

func main() {
	tags := flag.String("tags", "", "build tags for go list and go build")
	flag.Parse()
	if err := run(*tags); err != nil {
		fmt.Fprintln(os.Stderr, "reach: FAIL —", err)
		os.Exit(1)
	}
}

func run(tags string) error {
	out, err := goCmd("", "list", "-tags", tags, "-json=ImportPath,Name,Dir,GoFiles,TestGoFiles,XTestGoFiles", "./...")
	if err != nil {
		return err
	}
	var pkgs []pkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, p)
	}

	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	declared := map[string]fn{}
	tests := map[string]bool{}
	var mains []string
	for _, p := range pkgs {
		if rel, err := filepath.Rel(wd, p.Dir); err == nil {
			p.Dir = rel // positions print relative to the module root
		}
		if err := eachFunc(fset, p.Dir, append(p.TestGoFiles, p.XTestGoFiles...), func(d *ast.FuncDecl) {
			if n := d.Name.Name; d.Recv == nil && (strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Fuzz") || strings.HasPrefix(n, "Benchmark")) {
				tests[n] = true
			}
		}); err != nil {
			return err
		}
		if p.Name == "main" {
			if !strings.HasSuffix(p.ImportPath, "/scripts/reach") {
				mains = append(mains, p.ImportPath)
			}
			continue
		}
		if err := eachFunc(fset, p.Dir, p.GoFiles, func(d *ast.FuncDecl) {
			if sym, ok := symbol(p.ImportPath, d); ok {
				start, end := fset.Position(d.Pos()), fset.Position(d.End())
				declared[sym] = fn{sym, d.Name.Name, fmt.Sprintf("%s:%d", start.Filename, start.Line), end.Line - start.Line + 1}
			}
		}); err != nil {
			return err
		}
	}

	linked, err := linkedSymbols(tags, mains)
	if err != nil {
		return err
	}
	allow, problems, err := readAllow(tests)
	if err != nil {
		return err
	}
	var unlinked []fn
	lines := 0
	for _, f := range declared {
		if !linked[f.sym] {
			unlinked = append(unlinked, f)
			lines += f.lines
		}
	}
	sort.Slice(unlinked, func(i, j int) bool { return unlinked[i].sym < unlinked[j].sym })
	for _, f := range unlinked {
		if _, ok := allow[f.sym]; !ok {
			problems = append(problems, fmt.Sprintf("%s (%s, %d lines) is linked into no product binary", f.sym, f.pos, f.lines))
		}
	}
	for sym, witness := range allow {
		f, ok := declared[sym]
		switch {
		case !ok:
			problems = append(problems, allowFile+": "+sym+" is no longer declared")
		case linked[sym]:
			problems = append(problems, allowFile+": "+sym+" is linked now")
		case witness != "" && !mentions(witness, f.name):
			problems = append(problems, allowFile+": "+sym+": "+witness+" does not mention "+f.name)
		}
	}
	summary := fmt.Sprintf("%d functions declared, %d linked into no product binary (%d lines), %d named in %s",
		len(declared), len(unlinked), lines, len(allow), allowFile)
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "reach:", p)
		}
		return fmt.Errorf("%s; delete what no binary needs, or name it in %s with a reason", summary, allowFile)
	}
	fmt.Println("reach: OK —", summary)
	return nil
}

// eachFunc calls visit for every top-level function of the named files.
func eachFunc(fset *token.FileSet, dir string, files []string, visit func(*ast.FuncDecl)) error {
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				visit(fd)
			}
		}
	}
	return nil
}

// symbol spells d as go tool nm prints it: path.F, path.T.M for a value
// receiver, path.(*T).M for a pointer one. (A value method called only
// through its pointer is linked under its own name too: the pointer
// wrapper calls it.) Generic functions and init have no symbol of their
// own.
func symbol(path string, d *ast.FuncDecl) (string, bool) {
	if d.Type.TypeParams != nil || (d.Recv == nil && d.Name.Name == "init") {
		return "", false
	}
	if d.Recv == nil {
		return path + "." + d.Name.Name, true
	}
	typ, ptr := d.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	id, ok := typ.(*ast.Ident)
	if !ok { // a receiver with type parameters
		return "", false
	}
	if ptr {
		return path + ".(*" + id.Name + ")." + d.Name.Name, true
	}
	return path + "." + id.Name + "." + d.Name.Name, true
}

// linkedSymbols builds the product binaries into a temporary directory
// and returns every text symbol they hold.
func linkedSymbols(tags string, mains []string) (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	build := []string{"build", "-tags", tags, "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}
	if _, err := goCmd("", append(build, mains...)...); err != nil {
		return nil, err
	}
	if _, err := goCmd("benchmark", append(build, ".")...); err != nil {
		return nil, err
	}
	bins, err := os.ReadDir(tmp)
	if err != nil {
		return nil, err
	}
	if len(bins) != len(mains)+1 {
		return nil, fmt.Errorf("built %d binaries, want %d", len(bins), len(mains)+1)
	}
	linked := map[string]bool{}
	for _, b := range bins {
		out, err := goCmd("", "tool", "nm", filepath.Join(tmp, b.Name()))
		if err != nil {
			return nil, err
		}
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			if f := strings.Fields(sc.Text()); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[f[2]] = true
			}
		}
	}
	return linked, nil
}

// readAllow parses the allowlist into symbol → witness file ("" for a
// test witness, which it checks against tests here).
func readAllow(tests map[string]bool) (map[string]string, []string, error) {
	data, err := os.ReadFile(allowFile)
	if err != nil {
		return nil, nil, err
	}
	allow := map[string]string{}
	var problems []string
	for i, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		where := fmt.Sprintf("%s:%d: ", allowFile, i+1)
		if len(f) < 4 {
			problems = append(problems, where+"want <symbol> <kind> <witness> <reason>")
			continue
		}
		if _, dup := allow[f[0]]; dup {
			problems = append(problems, where+f[0]+" is named twice")
		}
		allow[f[0]] = ""
		switch f[1] {
		case "oracle", "hook":
			if !tests[f[2]] {
				problems = append(problems, where+"no _test.go declares "+f[2])
			}
		case "api":
			allow[f[0]] = f[2]
		default:
			problems = append(problems, where+"kind "+f[1]+" is not oracle, hook or api")
		}
	}
	return allow, problems, nil
}

// mentions reports whether the repository file names name.
func mentions(file, name string) bool {
	data, err := os.ReadFile(file)
	return err == nil && bytes.Contains(data, []byte(name))
}

// goCmd runs the go tool in dir and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v", strings.Join(args, " "), err)
	}
	return out, nil
}
