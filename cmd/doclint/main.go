// Command doclint enforces the repository's documentation conventions with
// go/ast: every listed package must carry a package comment, and (unless
// -pkgdoc is set) every exported top-level identifier — type, function,
// method, and each exported const/var group — must have a doc comment.
//
// Usage:
//
//	doclint ./internal/obs ./internal/metrics   # strict: exported docs too
//	doclint -pkgdoc ./internal/*/               # package comments only
//	doclint -unused                             # run in the module root
//
// Arguments are package directories (no pattern expansion — let the shell
// glob). Test files are skipped. Exit status 1 lists every violation, so
// CI output names the exact missing comment.
//
// -unused reports each exported package-level name and exported method of
// the current directory's module that no non-test file of it or of a module
// in a direct subdirectory (bench/) references outside its own declaration, as
// go/types resolves them. Exempt are methods that satisfy an interface
// declared in the module, error, fmt.Stringer, sort.Interface or
// heap.Interface; the exports of packages named *test (dhttest, graphtest),
// which serve other packages' tests; and the entries of
// cmd/doclint/unused.allow, at most 12 "name reason" lines. An entry that
// names no unused export is reported too. Struct fields are not checked.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	pkgdocOnly := flag.Bool("pkgdoc", false, "only require package comments, not per-identifier docs")
	unusedOnly := flag.Bool("unused", false, "report exported names with no non-test caller in the module in the current directory")
	flag.Parse()
	var violations []string
	if *unusedOnly {
		vs, err := unused(".", allowFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		violations = vs
	} else if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: doclint [-pkgdoc] dir [dir...] | doclint -unused")
		os.Exit(2)
	}
	for _, dir := range flag.Args() {
		vs, err := lintDir(dir, *pkgdocOnly)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		violations = append(violations, vs...)
	}
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
}

// lintDir parses one package directory and returns its violations.
func lintDir(dir string, pkgdocOnly bool) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	for name, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasPkgDoc = true
				break
			}
		}
		if !hasPkgDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, name))
		}
		if pkgdocOnly {
			continue
		}
		for file, f := range pkg.Files {
			out = append(out, lintFile(fset, filepath.Base(file), f)...)
		}
	}
	return out, nil
}

// lintFile reports exported top-level identifiers without doc comments.
func lintFile(fset *token.FileSet, file string, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what, name string) {
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			file, fset.Position(pos).Line, what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			what, name := "function", d.Name.Name
			if d.Recv != nil {
				// Methods on unexported types are not package API.
				if !ast.IsExported(receiverName(d.Recv)) {
					continue
				}
				what = "method"
				name = receiverName(d.Recv) + "." + name
			}
			report(d.Pos(), what, name)
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A group doc on the GenDecl covers every spec; a spec
					// doc or trailing line comment covers just that spec.
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(s.Pos(), strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName extracts the bare receiver type name (pointer and generic
// instantiation stripped).
func receiverName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
