package docscheck

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// allowlistFile lists the exported names under internal/ that no non-test
// file uses and that stay anyway, one "name reason" pair a line.
const allowlistFile = "deadexports.txt"

// allowedReason is the closed set of reasons an allowlist line may give.
var allowedReason = regexp.MustCompile(`^(fixture: [a-z/]+ tests|paper figure|owned by ROADMAP item [0-9]+)$`)

// TestNoDeadExports fails on an exported name under internal/ that no
// non-test file of the module uses and that deadexports.txt does not list,
// and on a listed name that is used or gone, so the list stays exact.
func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dead, err := deadExports(root)
	if err != nil {
		t.Fatalf("type-checking the module: %v", err)
	}
	allowed, err := readAllowlist(allowlistFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		if _, ok := allowed[d.name]; ok {
			delete(allowed, d.name)
			continue
		}
		pos := d.pos
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		t.Errorf("%s: %s is exported but no non-test file uses it: delete it, or list it in internal/docscheck/%s with a reason",
			pos, d.name, allowlistFile)
	}
	for name, line := range allowed {
		t.Errorf("internal/docscheck/%s:%d: %s is used or no longer exists: delete the line", allowlistFile, line, name)
	}
}

// TestDeadExportsFixture runs the checker over a small module: of a used
// export, an unused one, an unused String method that satisfies
// fmt.Stringer and an unused tagged field, only the unused export is dead.
func TestDeadExportsFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/fixture\n\ngo 1.22\n",
		"main.go": `package main

import "example.com/fixture/internal/lib"

func main() { println(lib.Used().Name) }
`,
		"internal/lib/lib.go": `package lib

import "fmt"

type T struct {
	Name string
	Wire int ` + "`json:\"wire\"`" + `
}

func Used() T { return T{Name: "t"} }

func Unused() {}

func (t T) String() string { return fmt.Sprintf("T(%s)", t.Name) }
`,
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := deadExports(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0].name != "lib.Unused" {
		t.Fatalf("dead = %v, want only lib.Unused", dead)
	}
}

// readAllowlist returns each listed name with its line number. A line
// whose reason is outside the closed set, or a name listed twice, is an
// error.
func readAllowlist(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	names := make(map[string]int)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		name, reason, _ := strings.Cut(sc.Text(), " ")
		reason = strings.TrimSpace(reason)
		if !allowedReason.MatchString(reason) {
			return nil, fmt.Errorf("%s:%d: reason %q is not one of %q", path, line, reason, allowedReason)
		}
		if first, dup := names[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s already listed on line %d", path, line, name, first)
		}
		names[name] = line
	}
	return names, sc.Err()
}

// deadName is an exported declaration that nothing outside test files uses.
type deadName struct {
	name string // package path below internal/, then the name: "vnet.Daemon.Rules"
	pos  token.Position
}

// deadExports type-checks every package of the module rooted at root and
// returns the exported declarations under internal/ that no non-test file
// of the module references: package-level funcs, types, vars and consts,
// methods, and fields of package-level struct types. A method that makes
// its type satisfy an interface declared in or imported by the module is
// exempt, and so is a field with a struct tag (encoding/json and
// encoding/xml reach tagged fields by reflection).
func deadExports(root string) ([]deadName, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &module{
		path: mod,
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*checked),
	}
	if err := m.load(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(m.pkgs))
	for path := range m.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := m.check(path); err != nil {
			return nil, err
		}
	}

	// A declaration is keyed by its position, not its object: a field or
	// method reached through a generic instance is a distinct object that
	// carries the declaring identifier's position.
	used := make(map[token.Pos]bool)
	ifaces := make(map[string][]*types.Interface) // by method name
	addIface := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	for _, path := range paths {
		c := m.pkgs[path]
		for _, obj := range c.info.Uses {
			used[obj.Pos()] = true
		}
		for _, tv := range c.info.Types {
			addIface(tv.Type)
		}
		for _, obj := range c.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		// A struct literal without keys sets every field by position.
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := c.info.TypeOf(lit).Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						used[st.Field(i).Pos()] = true
					}
				}
				return true
			})
		}
	}
	seen := make(map[*types.Package]bool)
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	for _, path := range paths {
		addScope(m.pkgs[path].pkg)
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var dead []deadName
	report := func(c *checked, id *ast.Ident, name string) {
		obj := c.info.Defs[id]
		if obj == nil || used[obj.Pos()] {
			return
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && satisfies(fn) {
			return
		}
		rel := strings.TrimPrefix(c.pkg.Path(), m.path+"/internal/")
		dead = append(dead, deadName{name: rel + "." + name, pos: m.fset.Position(id.Pos())})
	}
	for _, path := range paths {
		if !strings.HasPrefix(path, m.path+"/internal/") {
			continue
		}
		c := m.pkgs[path]
		for _, f := range c.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						report(c, d.Name, d.Name.Name)
					} else {
						report(c, d.Name, recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								report(c, s.Name, s.Name.Name)
							}
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, field := range st.Fields.List {
								if field.Tag != nil {
									continue
								}
								for _, id := range field.Names {
									if id.IsExported() {
										report(c, id, s.Name.Name+"."+id.Name)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									report(c, id, id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead, nil
}

// recvName is the base type name of a method receiver expression.
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr: // generic receiver T[P]
			expr = e.X
		case *ast.IndexListExpr: // generic receiver T[P, Q]
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", expr)
		}
	}
}

func modulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// module type-checks the packages of one module, each once, importing
// them from its own results and the standard library from source.
type module struct {
	path, root string
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*checked // by import path
}

type checked struct {
	files []*ast.File // non-test files only
	pkg   *types.Package
	info  *types.Info
}

// load parses the non-test files of every package directory under root.
func (m *module) load() error {
	return filepath.WalkDir(m.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != m.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(path, name); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			f, err := parser.ParseFile(m.fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(m.root, path)
		if err != nil {
			return err
		}
		imp := m.path
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		m.pkgs[imp] = &checked{files: files}
		return nil
	})
}

// check type-checks one module package after the module packages it
// imports.
func (m *module) check(path string) (*types.Package, error) {
	c := m.pkgs[path]
	if c.pkg != nil {
		return c.pkg, nil
	}
	c.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, c.files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkg = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (m *module) Import(path string) (*types.Package, error) {
	if _, ok := m.pkgs[path]; ok {
		return m.check(path)
	}
	return m.std.Import(path)
}
