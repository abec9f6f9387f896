package sdsm_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// linkedAllowlist maps the patterns (filepath.Match) of the functions
// declared in non-test files of internal/ that no binary links on purpose
// to the reason each may stay.
var linkedAllowlist = map[string]string{
	"sdsm/internal/ir.*.isStmt":       "Stmt is a sealed interface: its markers are type-checked, never called",
	"sdsm/internal/leaktest.*":        "the socket stacks' tests share this shutdown audit across packages",
	"sdsm/internal/vm.(*Arena).Loans": "harness/warm_test.go counts the idle list's loans across packages",
}

// TestInternalCodeIsLinked holds production code to what a binary links:
// every function declared in a non-test file under internal/ must be
// linked into one of the commands, the examples or the benchmark. Code
// only tests reach belongs in the tests. Built with inlining off, so a
// call that would be inlined still leaves its callee's symbol.
func TestInternalCodeIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	dir := t.TempDir()
	run := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(goTool, args...)
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=-buildvcs=false")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}

	run("build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	run("build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(dir, "sdsm-bench"), ".")
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, b := range bins {
		sc := bufio.NewScanner(bytes.NewReader(run("tool", "nm", filepath.Join(dir, b.Name()))))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := strings.Join(f[2:], " ")
			if strings.HasPrefix(name, "sdsm/internal/") {
				linked[normalizeSymbol(name)] = true
			}
		}
	}

	var unlinked []string
	used := map[string]bool{}
	for _, fn := range declaredInternalFuncs(t, run) {
		if linked[fn] {
			continue
		}
		if pat := allowlisted(fn); pat != "" {
			used[pat] = true
			continue
		}
		unlinked = append(unlinked, fn)
	}
	sort.Strings(unlinked)
	for _, fn := range unlinked {
		t.Errorf("%s is declared outside tests but no binary links it: move it into the tests or delete it", fn)
	}
	for pat := range linkedAllowlist {
		if !used[pat] {
			t.Errorf("allowlist entry %s excuses nothing: drop it", pat)
		}
	}
}

// closureSuffix matches the compiler's names for a function's closures,
// go statements and defers, which all count as their enclosing function.
var closureSuffix = regexp.MustCompile(`\.(func|gowrap|deferwrap)[0-9]+(\..*)?$`)

// normalizeSymbol maps a linked text symbol to the declaration it came
// from: type arguments stripped (shape names nest brackets, so each
// group is cut at its matching bracket), closures folded into their
// function and method values into their method.
func normalizeSymbol(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s = strings.TrimSuffix(b.String(), "-fm")
	return closureSuffix.ReplaceAllString(s, "")
}

// allowlisted returns the allowlist pattern excusing fn, or "".
func allowlisted(fn string) string {
	for pat := range linkedAllowlist {
		if ok, _ := filepath.Match(pat, fn); ok {
			return pat
		}
	}
	return ""
}

// declaredInternalFuncs lists every function and method declared in the
// non-test files go list reports for internal/ on this platform, named
// as the linker names them (pkg.F, pkg.T.M, pkg.(*T).M).
func declaredInternalFuncs(t *testing.T, run func(...string) []byte) []string {
	t.Helper()
	var out []string
	dec := json.NewDecoder(bytes.NewReader(run("list", "-json=Dir,ImportPath,GoFiles", "./internal/...")))
	for dec.More() {
		var p struct {
			Dir, ImportPath string
			GoFiles         []string
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				out = append(out, p.ImportPath+"."+receiverPrefix(fd)+fd.Name.Name)
			}
		}
	}
	return out
}

// receiverPrefix is "T." or "(*T)." for a method and "" for a function.
func receiverPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ, ptr := fd.Recv.List[0].Type, false
	if st, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = st.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}
