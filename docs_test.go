package nuevomatch_test

// Documentation enforcement: the godoc-coverage lint keeps every exported
// identifier of the public package documented (the "docs" CI step runs it
// alongside go vet), and the link checker keeps the relative links inside
// README.md and docs/*.md resolving as files move.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestGodocCoverage parses the root package and fails on any exported
// top-level identifier — type, function, method, constant, or variable —
// without a doc comment. It is the enforcement half of the godoc pass: a
// new exported name cannot land undocumented.
func TestGodocCoverage(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["nuevomatch"]
	if !ok {
		t.Fatalf("package nuevomatch not found in .; got %v", pkgs)
	}
	var missing []string
	report := func(pos token.Pos, kind, name string) {
		missing = append(missing, fset.Position(pos).String()+": "+kind+" "+name)
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil && !exportedReceiver(d.Recv) {
					continue
				}
				if d.Doc == nil {
					kind := "func"
					if d.Recv != nil {
						kind = "method"
					}
					report(d.Pos(), kind, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
							report(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							// A spec comment, a spec line comment, or a doc on
							// the enclosing const/var block all count.
							if name.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
								report(name.Pos(), "value", name.Name)
							}
						}
					}
				}
			}
		}
	}
	for _, m := range missing {
		t.Errorf("undocumented exported identifier: %s", m)
	}
}

// exportedReceiver reports whether a method's receiver type is exported
// (methods on unexported types need no godoc).
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr: // generic receiver
			typ = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// mdLink matches markdown inline links; group 2 is the target.
var mdLink = regexp.MustCompile(`\[([^\]]*)\]\(([^)\s]+)\)`)

// TestDocLinks resolves every relative link in README.md and docs/*.md:
// each must point at a file (or directory) that exists, so restructuring
// cannot silently orphan the documentation system.
func TestDocLinks(t *testing.T) {
	files := []string{"README.md"}
	docFiles, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docFiles...)
	if len(docFiles) < 2 {
		t.Errorf("expected at least docs/ARCHITECTURE.md and docs/BENCHMARKS.md, found %v", docFiles)
	}
	// Core docs that must exist by name: the glob above would silently
	// shrink if one were deleted or renamed.
	for _, want := range []string{"ARCHITECTURE.md", "BENCHMARKS.md", "RELIABILITY.md", "SERVING.md", "STATIC_ANALYSIS.md"} {
		if !slices.Contains(docFiles, filepath.Join("docs", want)) {
			t.Errorf("docs/%s is missing", want)
		}
	}
	checked := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("reading %s: %v", f, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[2]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: link %q does not resolve (%s)", f, m[2], resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no relative links found at all — checker likely broken")
	}
	checkGoCommentDocs(t)
}

// mdName matches a markdown file name cited in prose: a word, then ".md".
var mdName = regexp.MustCompile(`\b[A-Za-z0-9_]+\.md\b`)

// checkGoCommentDocs fails on any markdown file cited in a Go comment that
// exists neither at the repository root, nor under docs/, nor beside the
// citing file (a nested module keeps its own notes).
func checkGoCommentDocs(t *testing.T) {
	t.Helper()
	cited := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, name := range mdName.FindAllString(cg.Text(), -1) {
				cited++
				found := false
				for _, dir := range []string{".", "docs", filepath.Dir(path)} {
					if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s cites %s, which is not at the root, under docs/ or beside it", path, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Error("no markdown file cited in any Go comment — checker likely broken")
	}
}
