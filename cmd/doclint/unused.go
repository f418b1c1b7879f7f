package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allowFile is the -unused allowlist, relative to the module root; it
// holds at most allowMax entries.
const (
	allowFile = "cmd/doclint/unused.allow"
	allowMax  = 12
)

// listed is the part of a `go list -json` record the check reads.
type listed struct {
	ImportPath, Name, Dir, Export string
	GoFiles                       []string
	Module                        *struct{ Path string }
}

// export is one exported package-level object or method, named as the
// report and the allowlist spell it: internal/event.WallClock.Stop.
type export struct {
	obj  types.Object
	name string
}

// unused returns one line per exported package-level identifier or method
// of the module rooted at root that no non-test file of that module, or of
// a module in a direct subdirectory of root, references outside its own
// declaration. Entries of the allowlist at allowPath are skipped; one that
// matches no unused export is reported instead.
func unused(root, allowPath string) ([]string, error) {
	allow, err := readAllowlist(allowPath)
	if err != nil {
		return nil, err
	}
	if root, err = filepath.Abs(root); err != nil {
		return nil, err
	}
	pkgs, err := goList(root)
	if err != nil || len(pkgs) == 0 {
		return nil, err
	}
	module := pkgs[len(pkgs)-1].Module.Path // -deps lists dependencies first
	nested, _ := filepath.Glob(filepath.Join(root, "*", "go.mod"))
	for _, mod := range nested {
		more, err := goList(filepath.Dir(mod))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, more...)
	}

	// Module packages are checked from source into one universe, so a method
	// and an interface from different packages compare by identity; the
	// standard library comes from export data.
	fset := token.NewFileSet()
	exportData := map[string]string{}
	for _, p := range pkgs {
		exportData[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exportData[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, std := range [][2]string{{"fmt", "Stringer"}, {"sort", "Interface"}, {"container/heap", "Interface"}} {
		if p, err := imp.Import(std[0]); err == nil {
			ifaces = append(ifaces, p.Scope().Lookup(std[1]).Type().Underlying().(*types.Interface))
		}
	}
	used := map[types.Object]bool{}
	var exports []export
	for _, p := range pkgs {
		if p.Module == nil || checked[p.ImportPath] != nil {
			continue
		}
		pkg, err := checkPackage(fset, imp, p, used)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		if p.Module.Path != module {
			continue
		}
		for _, n := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(n)
			if tn, ok := obj.(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
			// Packages named *test serve other packages' tests.
			if obj.Exported() && !strings.HasSuffix(p.Name, "test") {
				exports = append(exports, export{obj, strings.TrimPrefix(p.ImportPath, module+"/") + "." + n})
			}
		}
	}
	// Methods go last, once every interface they may satisfy is known; the
	// range stops at the package-level names.
	for _, e := range exports {
		if tn, ok := e.obj.(*types.TypeName); ok && !tn.IsAlias() {
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !satisfiesInterface(named, m.Name(), ifaces) {
					exports = append(exports, export{m, e.name + "." + m.Name()})
				}
			}
		}
	}

	var out []string
	for _, e := range exports {
		switch {
		case used[e.obj]:
		case allow[e.name] != "":
			delete(allow, e.name)
		default:
			pos := fset.Position(e.obj.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			out = append(out, fmt.Sprintf("%s:%d: %s has no non-test caller", filepath.ToSlash(rel), pos.Line, e.name))
		}
	}
	var stale []string
	for name := range allow {
		stale = append(stale, fmt.Sprintf("%s: allowlisted %s is not an unused export; remove the entry", allowPath, name))
	}
	sort.Strings(stale)
	return append(out, stale...), nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goList lists the packages of the module in dir after their dependencies,
// with export data for the standard library ones.
func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// checkPackage type-checks one package's non-test files and marks in used
// every object they reference, except a function's references to itself.
func checkPackage(fset *token.FileSet, imp types.Importer, p listed, used map[types.Object]bool) (*types.Package, error) {
	var files []*ast.File
	for _, f := range p.GoFiles {
		af, err := parser.ParseFile(fset, filepath.Join(p.Dir, f), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					obj := info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin() // a method of a generic type's instance
					}
					if obj != nil && obj != self {
						used[obj] = true
					}
				}
				return true
			})
		}
	}
	return pkg, nil
}

// satisfiesInterface reports whether method m of named belongs to one of
// ifaces that named or *named implements: such a method is called through
// the interface, whoever names it.
func satisfiesInterface(named *types.Named, m string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// readAllowlist reads "name reason" lines, skipping blank lines and lines
// that start with #, into a map from name to reason.
func readAllowlist(file string) (map[string]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, i+1, name)
		}
		allow[name] = reason
	}
	if len(allow) > allowMax {
		return nil, fmt.Errorf("%s: %d entries, at most %d", file, len(allow), allowMax)
	}
	return allow, nil
}
