// Package analysistest runs a streamsched analyzer over fixture packages
// and checks its diagnostics against // want comments, mirroring x/tools'
// analysistest on the standard library alone.
//
// Fixtures live under <testdata>/src/<importpath>/ and may reuse real
// import paths (e.g. streamsched/internal/obs backed by a stub), so an
// analyzer keyed on production package paths exercises against the same
// paths it matches in the tree. A fixture line carrying an expected
// finding says:
//
//	ctx := context.Background() // want `context.Background below core`
//
// Each string after `want` is a regular expression (quoted or backquoted)
// that must match a diagnostic reported on that line; diagnostics without
// a matching want, and wants without a matching diagnostic, fail the test.
// A line expecting several findings lists several patterns.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"streamsched/internal/analysis"
)

// Run loads the fixture package at <testdata>/src/<pkgPath>, applies the
// analyzer and checks diagnostics against the fixture's want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &loader{
		testdata: testdata,
		fset:     fset,
		pkgs:     map[string]*types.Package{},
		stdlib:   importer.ForCompiler(fset, "source", nil),
	}
	files, pkg, info, err := ld.load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	diags, err := analysis.RunAnalyzers(fset, files, pkg, info, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
	}
	checkWants(t, fset, files, diags)
}

// loader typechecks fixture packages, resolving imports against the
// fixture tree first and the standard library (from source) second.
type loader struct {
	testdata string
	fset     *token.FileSet
	pkgs     map[string]*types.Package
	stdlib   types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if dir := filepath.Join(l.testdata, "src", filepath.FromSlash(path)); dirExists(dir) {
		_, pkg, _, err := l.load(path)
		return pkg, err
	}
	return l.stdlib.Import(path)
}

func (l *loader) load(path string) ([]*ast.File, *types.Package, *types.Info, error) {
	dir := filepath.Join(l.testdata, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("no fixture files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	l.pkgs[path] = pkg
	return files, pkg, info, nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// want is one expected-diagnostic pattern anchored to a file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	hit  bool
}

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, w := range parseWant(t, c.Text) {
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: w.re, text: w.text})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	sort.SliceStable(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.text)
		}
	}
}

var wantRe = regexp.MustCompile(`^//\s*want\s+(.*)$`)

// parseWant extracts the quoted regexps from a `// want "..." ...` comment.
func parseWant(t *testing.T, comment string) []*want {
	m := wantRe.FindStringSubmatch(comment)
	if m == nil {
		return nil
	}
	var out []*want
	rest := strings.TrimSpace(m[1])
	for rest != "" {
		var lit string
		switch rest[0] {
		case '"', '`':
			end := strings.IndexByte(rest[1:], rest[0])
			if end < 0 {
				t.Fatalf("unterminated want pattern: %s", comment)
			}
			lit = rest[:end+2]
			rest = strings.TrimSpace(rest[end+2:])
		default:
			t.Fatalf("want patterns must be quoted or backquoted: %s", comment)
		}
		text, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("bad want pattern %s: %v", lit, err)
		}
		re, err := regexp.Compile(text)
		if err != nil {
			t.Fatalf("bad want regexp %q: %v", text, err)
		}
		out = append(out, &want{re: re, text: text})
	}
	return out
}
