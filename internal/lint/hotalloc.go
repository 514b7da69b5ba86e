package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// HotpathDirective marks a function as allocation-critical: the hotalloc
// gate fails if the compiler's escape analysis reports a heap allocation
// anywhere in its body. The function's doc comment is the justification
// for why it is on the hot path.
const HotpathDirective = "//podnas:hotpath"

// HotallocPackages are the module-relative package directories the gate
// inspects by default: the kernel compute layer and the nn training loop,
// whose measured zero-allocation train step (the benchmark's
// nn.allocs_per_step) this gate turns into a statically enforced invariant.
var HotallocPackages = []string{"internal/kernel", "internal/nn"}

// hotFunc is one //podnas:hotpath-annotated function's source extent.
type hotFunc struct {
	name       string
	file       string // module-root-relative, slash-separated
	start, end int    // body line range, inclusive
}

// escapeLine matches one compiler diagnostic from -gcflags=-m output.
var escapeLine = regexp.MustCompile(`^([^\s:]+\.go):(\d+):(\d+): (.*)$`)

// HotallocGate runs `go build -gcflags=<pkg>=-m` over each package and
// reports every heap allocation ("escapes to heap" / "moved to heap") that
// lands inside a //podnas:hotpath function and is not excused by a
// //podnas:allow hotalloc directive on or directly above its line. The
// build cache replays compiler diagnostics, so repeated runs are cheap.
//
// knownChecks is the full production check-name set, used only to parse
// allow directives without misreading suppressions that belong to other
// analyzers; malformed directives are the AST run's findings, not ours.
func HotallocGate(modDir, modPath string, pkgRels []string, knownChecks map[string]bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, rel := range pkgRels {
		hot, allow, err := collectHotpaths(modDir, rel, knownChecks)
		if err != nil {
			return nil, err
		}
		importPath := modPath + "/" + filepath.ToSlash(rel)
		cmd := exec.Command("go", "build", "-gcflags="+importPath+"=-m", importPath)
		cmd.Dir = modDir
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("lint: hotalloc build of %s failed: %v\n%s", importPath, err, out)
		}
		diags = append(diags, correlateEscapes(string(out), hot, allow)...)
	}
	return diags, nil
}

// collectHotpaths parses the non-test files of one package directory,
// returning every hotpath-annotated function's extent plus the set of
// (file, line) cells covered by a //podnas:allow hotalloc directive.
func collectHotpaths(modDir, rel string, knownChecks map[string]bool) ([]hotFunc, map[allowKey]bool, error) {
	dir := filepath.Join(modDir, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: hotalloc: %s: %w", rel, err)
	}
	fset := token.NewFileSet()
	var hot []hotFunc
	allow := make(map[allowKey]bool)
	for _, name := range bp.GoFiles {
		relFile := rel + "/" + name
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: hotalloc: %s: %w", relFile, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				res := ParseAllowDirective(c.Text, knownChecks)
				if res.Check != "hotalloc" {
					continue
				}
				line := fset.Position(c.Pos()).Line
				allow[allowKey{relFile, line, "hotalloc"}] = true
				allow[allowKey{relFile, line + 1, "hotalloc"}] = true
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			hot = append(hot, hotFunc{
				name:  fd.Name.Name,
				file:  relFile,
				start: fset.Position(fd.Pos()).Line,
				end:   fset.Position(fd.Body.End()).Line,
			})
		}
	}
	return hot, allow, nil
}

// isHotpath reports whether the function's doc comment carries the
// hotpath directive.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == HotpathDirective || strings.HasPrefix(c.Text, HotpathDirective+" ") {
			return true
		}
	}
	return false
}

// isAllocEscape reports whether one -m diagnostic is a real allocation:
// a buffer (make), an object (&T{} / new / composite literal), a closure
// (func literal), or a stack variable forced to the heap. Interface-boxing
// diagnostics ("x escapes to heap" for a Sprintf argument on a panic path)
// are excluded: they fire only on death paths and would drown the signal
// the gate exists for — a new buffer or closure allocated per train step.
func isAllocEscape(msg string) bool {
	if strings.HasPrefix(msg, "moved to heap:") {
		return true
	}
	if !strings.HasSuffix(msg, "escapes to heap") {
		return false
	}
	expr := strings.TrimSuffix(msg, " escapes to heap")
	switch {
	case strings.HasPrefix(expr, "make("),
		strings.HasPrefix(expr, "new("),
		strings.HasPrefix(expr, "&"),
		strings.HasPrefix(expr, "func literal"),
		strings.HasPrefix(expr, "[]"),
		strings.HasPrefix(expr, "map["),
		strings.HasSuffix(expr, "{...}"):
		return true
	}
	return false
}

// correlateEscapes scans one build's -m output for heap allocations inside
// hotpath extents.
func correlateEscapes(out string, hot []hotFunc, allow map[allowKey]bool) []Diagnostic {
	var diags []Diagnostic
	for _, line := range strings.Split(out, "\n") {
		m := escapeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !isAllocEscape(msg) {
			continue
		}
		file := m[1]
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		for _, h := range hot {
			if h.file != file || lineNo < h.start || lineNo > h.end {
				continue
			}
			if allow[allowKey{file, lineNo, "hotalloc"}] {
				break
			}
			diags = append(diags, Diagnostic{
				Check: "hotalloc",
				File:  file,
				Line:  lineNo,
				Col:   col,
				Message: fmt.Sprintf("heap allocation in hot-path function %s: %s; keep it on the stack, stage it through an Arena, or //podnas:allow hotalloc <reason>",
					h.name, msg),
			})
			break
		}
	}
	return diags
}
