// Package lint checks the repository's own rules with the standard
// library's go/parser and go/types. It has no non-test files, so `go build`
// skips it and `go test ./...` runs it.
//
// Rule 1 (determinism): the simulated packages read neither the wall clock
// nor math/rand's global source, and no range over a map directly sends,
// schedules or draws, since Go randomises map order. internal/cert does not
// import math/rand at all.
//
// Rule 2 (no export that only tests reach): every exported declaration of
// a product package is used by non-test code somewhere in the module,
// bench/, cmd/ or examples/, or makes its type satisfy an interface.
//
// A finding that must stay is listed in allowed (allow_test.go) with a
// one-line reason; an entry that no longer matches a finding fails.
package lint

import (
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

var (
	fset = token.NewFileSet()
	// std type-checks the standard library from source, without cgo so no
	// C toolchain is needed. It caches what it has loaded, so every
	// program below shares it.
	std = newStdImporter()
)

func newStdImporter() types.Importer {
	build.Default.CgoEnabled = false
	return importer.ForCompiler(fset, "source", nil)
}

// module is the repository's module path; bench/ is its own module
// newswire/bench, so the one prefix resolves both.
const module = "newswire"

// deterministic lists the packages whose behaviour the simulator replays
// from a seed (rule 1).
var deterministic = []string{
	"sim", "sim/chaos", "core", "astrolabe", "multicast", "pubsub", "cache",
	"query", "sqlagg", "bloom", "value", "wire", "vtime", "flow", "trace",
	"news",
}

// randFree lists the packages that may not import math/rand at all.
var randFree = []string{"cert"}

// harness lists the internal packages that are not product (rule 2).
var harness = []string{"experiments", "baseline", "workload", "sim", "sim/chaos"}

// A program is a set of packages type-checked from source into one
// types.Info.
type program struct {
	root   string // directory of the import path prefix
	prefix string // import path prefix resolved under root
	info   *types.Info
	pkgs   map[string]*pkg
}

type pkg struct {
	path  string
	types *types.Package
	files []*ast.File
}

func newProgram(root, prefix string) *program {
	return &program{
		root:   root,
		prefix: prefix,
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs: map[string]*pkg{},
	}
}

// Import resolves the program's own paths from source under root and
// hands every other path to the standard-library importer.
func (p *program) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, p.prefix)
	if !ok || (rel != "" && rel[0] != '/') {
		return std.Import(path)
	}
	lp, err := p.load(path, filepath.Join(p.root, rel))
	if err != nil {
		return nil, err
	}
	return lp.types, nil
}

// load parses and type-checks the non-test files of the package in dir.
// It returns nil, nil when dir holds no buildable non-test file.
func (p *program) load(path, dir string) (*pkg, error) {
	if lp, ok := p.pkgs[path]; ok {
		if lp == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return lp, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = nil
	lp := &pkg{path: path}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	conf := types.Config{Importer: p}
	if lp.types, err = conf.Check(path, fset, lp.files, p.info); err != nil {
		return nil, err
	}
	p.pkgs[path] = lp
	return lp, nil
}

// loadTree loads every package under the program's root, skipping
// testdata and hidden directories.
func (p *program) loadTree() error {
	return filepath.WalkDir(p.root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != p.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(p.root, dir)
		path := p.prefix
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = p.load(path, dir)
		return err
	})
}

// short names a package by its path below internal/.
func (p *program) short(path string) string {
	return strings.TrimPrefix(strings.TrimPrefix(path, p.prefix+"/"), "internal/")
}

// paths maps short package names to the loaded packages they name.
func (p *program) paths(t *testing.T, names []string) []*pkg {
	var out []*pkg
	for _, n := range names {
		found := false
		for path, lp := range p.pkgs {
			if lp != nil && p.short(path) == n {
				out = append(out, lp)
				found = true
			}
		}
		if !found {
			t.Errorf("package %q is listed but not loaded", n)
		}
	}
	return out
}

// A finding is one rule violation. key names it in the allowlist.
type finding struct {
	pos token.Position
	key string
	msg string
}

// funcName is a declaration's qualified name: pkg.F, pkg.T.M or
// pkg.(*T).M.
func (p *program) funcName(lp *pkg, d *ast.FuncDecl) string {
	name := p.short(lp.path) + "."
	if d.Recv != nil && len(d.Recv.List) == 1 {
		typ := d.Recv.List[0].Type
		star := false
		if s, ok := typ.(*ast.StarExpr); ok {
			typ, star = s.X, true
		}
		switch x := typ.(type) {
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		}
		recv := typ.(*ast.Ident).Name
		if star {
			recv = "(*" + recv + ")"
		}
		name += recv + "."
	}
	return name + d.Name.Name
}

// wallClock names the time functions that read or wait on the wall clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// seededRand names the package-level math/rand functions that do not draw
// from the global source.
var seededRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// scheduleNames names the methods and func-typed fields that schedule
// work or send a message.
var scheduleNames = map[string]bool{
	"Send": true, "SendFrame": true, "After": true, "At": true,
	"AfterOwned": true, "AtOwned": true, "Every": true,
}

func isRandPath(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

// namedType returns the package path and name of t's named type, or of
// the named type t points to.
func namedType(t types.Type) (pkgPath, name string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Pkg().Path(), n.Obj().Name()
}

// forbiddenCall names a package-level function that rule 1 forbids in a
// deterministic package and says why, or returns "", "".
func forbiddenCall(obj types.Object) (what, why string) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	switch {
	case isRandPath(fn.Pkg().Path()) && !seededRand[fn.Name()]:
		return "rand." + fn.Name(), "draws from the global source"
	case fn.Pkg().Path() == "time" && wallClock[fn.Name()]:
		return "time." + fn.Name(), "reads the wall clock"
	}
	return "", ""
}

// orderedCall names a call that must not run once per key of a map range
// (a send, a schedule or a draw), or returns "".
func orderedCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s := info.Selections[sel]
	if s == nil {
		return ""
	}
	name := s.Obj().Name()
	switch s.Kind() {
	case types.MethodVal:
		path, typ := namedType(s.Obj().Type().(*types.Signature).Recv().Type())
		switch {
		case typ == "Rand" && isRandPath(path):
			return "(*rand.Rand)." + name
		case typ == "Time" && path == "time":
			return ""
		case scheduleNames[name]:
			return name
		}
	case types.FieldVal:
		if _, fn := s.Obj().Type().Underlying().(*types.Signature); fn && scheduleNames[name] {
			return name
		}
	}
	return ""
}

// checkDeterminism applies rule 1 to the packages det, and its import
// rule to the packages noRand.
func checkDeterminism(p *program, det, noRand []*pkg) []finding {
	var out []finding
	add := func(pos token.Pos, where, what, why string) {
		key := where + ": " + what
		out = append(out, finding{fset.Position(pos), key, key + " " + why})
	}
	for _, lp := range noRand {
		for _, f := range lp.files {
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); isRandPath(path) {
					add(imp.Pos(), p.short(lp.path), "imports "+path, "(keys come from crypto/rand only)")
				}
			}
		}
	}
	for _, lp := range det {
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				where := p.short(lp.path)
				if d, ok := decl.(*ast.FuncDecl); ok {
					where = p.funcName(lp, d)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if what, why := forbiddenCall(p.info.Uses[n]); what != "" {
							add(n.Pos(), where, what, why)
						}
					case *ast.RangeStmt:
						if _, ok := p.info.TypeOf(n.X).Underlying().(*types.Map); !ok {
							return true
						}
						ast.Inspect(n.Body, func(m ast.Node) bool {
							// A nested map range reports its own calls.
							if r, ok := m.(*ast.RangeStmt); ok {
								if _, ok := p.info.TypeOf(r.X).Underlying().(*types.Map); ok {
									return false
								}
							}
							if call, ok := m.(*ast.CallExpr); ok {
								if what := orderedCall(p.info, call); what != "" {
									add(call.Lparen, where, "range over a map calls "+what, "in random order")
								}
							}
							return true
						})
					}
					return true
				})
			}
		}
	}
	return out
}

// A declared export is a rule-2 candidate: an exported package-level
// identifier or method of a product package.
type declared struct {
	name       string
	lines      int
	start, end token.Pos // the declaration; uses inside it do not count
	used       bool
}

// origin maps a method of an instantiated generic type back to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// checkExports applies rule 2: every exported declaration of the packages
// product is used by non-test code of any loaded package, or makes its
// type satisfy an interface.
func checkExports(p *program, product []*pkg) []finding {
	cands := map[types.Object]*declared{}
	addCand := func(obj types.Object, name string, decl ast.Node) {
		lines := fset.Position(decl.End()).Line - fset.Position(decl.Pos()).Line + 1
		cands[origin(obj)] = &declared{name: name, lines: lines, start: decl.Pos(), end: decl.End()}
	}
	for _, lp := range product {
		prefix := p.short(lp.path) + "."
		for _, f := range lp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() {
						addCand(p.info.Defs[d.Name], p.funcName(lp, d), d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								addCand(p.info.Defs[s.Name], prefix+s.Name.Name, s)
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									addCand(p.info.Defs[id], prefix+id.Name, s)
								}
							}
						}
					}
				}
			}
		}
	}

	// A use counts when it is outside the declaration and not a method's
	// receiver type.
	for _, lp := range p.pkgs {
		if lp == nil {
			continue
		}
		for _, f := range lp.files {
			recvs := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvs[id] = true
						}
						return true
					})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || recvs[id] {
					return true
				}
				if c := cands[origin(p.info.Uses[id])]; c != nil && (id.Pos() < c.start || id.Pos() >= c.end) {
					c.used = true
				}
				return true
			})
		}
	}

	// A method that makes its type satisfy an interface is used by that
	// interface's callers, including through promotion from an embedded
	// type.
	markSatisfying(p, cands)

	var out []finding
	for _, c := range cands {
		if !c.used {
			out = append(out, finding{
				pos: fset.Position(c.start),
				key: c.name,
				msg: fmt.Sprintf("%s is reached only by tests (%d-line declaration)", c.name, c.lines),
			})
		}
	}
	return out
}

// markSatisfying marks every candidate method that some named type of the
// program uses to satisfy an interface declared in the program or in the
// standard library it imports.
func markSatisfying(p *program, cands map[types.Object]*declared) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var concrete []types.Type
	seen := map[*types.Package]bool{}
	var visit func(pk *types.Package)
	visit = func(pk *types.Package) {
		if seen[pk] {
			return
		}
		seen[pk] = true
		own := p.pkgs[pk.Path()] != nil
		scope := pk.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else if own {
				concrete = append(concrete, named, types.NewPointer(named))
			}
		}
		for _, imp := range pk.Imports() {
			visit(imp)
		}
	}
	for _, lp := range p.pkgs {
		if lp != nil {
			visit(lp.types)
		}
	}
	// Interface literals: an assertion to interface{ M() } is a use of M.
	for _, tv := range p.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}

	for _, typ := range concrete {
		ms := types.NewMethodSet(typ)
		if ms.Len() == 0 {
			continue
		}
		names := map[string]bool{}
		for i := 0; i < ms.Len(); i++ {
			names[ms.At(i).Obj().Name()] = true
		}
	next:
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if !names[it.Method(i).Name()] {
					continue next
				}
			}
			if !types.Implements(typ, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
					if c := cands[origin(sel.Obj())]; c != nil {
						c.used = true
					}
				}
			}
		}
	}
}

// reasonKinds are the four reasons a finding may stay.
var reasonKinds = regexp.MustCompile(`^(floor|oracle|format|live-only): \S`)

// TestRepoRules runs both rules over the repository and holds every
// finding to the allowlist, and the allowlist to the findings.
func TestRepoRules(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	p := newProgram(root, module)
	if err := p.loadTree(); err != nil {
		t.Fatal(err)
	}
	var product []*pkg
	excluded := map[string]bool{}
	for _, n := range harness {
		excluded[n] = true
	}
	for path, lp := range p.pkgs {
		if lp != nil && strings.HasPrefix(path, module+"/internal/") && !excluded[p.short(path)] {
			product = append(product, lp)
		}
	}
	findings := checkDeterminism(p, p.paths(t, deterministic), p.paths(t, randFree))
	findings = append(findings, checkExports(p, product)...)
	sort.Slice(findings, func(i, j int) bool { return findings[i].key < findings[j].key })

	hit := map[string]bool{}
	for _, f := range findings {
		hit[f.key] = true
		if _, ok := allowed[f.key]; !ok {
			t.Errorf("%s: %s", f.pos, f.msg)
		}
	}
	for key, reason := range allowed {
		if !reasonKinds.MatchString(reason) {
			t.Errorf("allowlist %q: reason %q is not floor:, oracle:, format: or live-only:", key, reason)
		}
		if !hit[key] {
			t.Errorf("allowlist %q is stale: it matches no finding", key)
		}
	}
}

// wantRe matches a testdata expectation: // want "regexp".
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// checkTestdata loads the testdata tree, runs check on the package name and
// compares what it reports with the // want comments in its files, line
// for line.
func checkTestdata(t *testing.T, name string, check func(p *program, pkgs []*pkg) []finding) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	p := newProgram(root, "testdata")
	if err := p.loadTree(); err != nil {
		t.Fatal(err)
	}
	pkgs := p.paths(t, []string{name})
	type line struct {
		file string
		line int
	}
	wants := map[line]*regexp.Regexp{}
	for _, lp := range pkgs {
		for _, f := range lp.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if m := wantRe.FindStringSubmatch(c.Text); m != nil {
						pos := fset.Position(c.Pos())
						wants[line{pos.Filename, pos.Line}] = regexp.MustCompile(m[1])
					}
				}
			}
		}
	}
	for _, f := range check(p, pkgs) {
		l := line{f.pos.Filename, f.pos.Line}
		re, ok := wants[l]
		switch {
		case !ok:
			t.Errorf("%s: unexpected finding: %s", f.pos, f.msg)
		case !re.MatchString(f.msg):
			t.Errorf("%s: finding %q does not match want %q", f.pos, f.msg, re)
		}
		delete(wants, l)
	}
	for l, re := range wants {
		t.Errorf("%s:%d: no finding matched want %q", l.file, l.line, re)
	}
}

func TestDeterminismTestdata(t *testing.T) {
	t.Run("nondeterministic", func(t *testing.T) {
		// Also held to the rule that forbids importing math/rand.
		checkTestdata(t, "nondeterministic", func(p *program, pkgs []*pkg) []finding {
			return checkDeterminism(p, pkgs, pkgs)
		})
	})
	t.Run("deterministic", func(t *testing.T) {
		checkTestdata(t, "deterministic", func(p *program, pkgs []*pkg) []finding {
			return checkDeterminism(p, pkgs, nil)
		})
	})
}

func TestExportsTestdata(t *testing.T) {
	for _, name := range []string{"testonly", "used"} {
		t.Run(name, func(t *testing.T) { checkTestdata(t, name, checkExports) })
	}
}
