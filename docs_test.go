package pi2bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code references TestDocsResolve checks.
var docFiles = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// repoPath is a slash-separated path with no spaces or arguments.
	repoPath = regexp.MustCompile(`^[\w.-]+(/[\w.-]*)+$`)
	goFile   = regexp.MustCompile(`^[\w.-]+\.go$`)
	// qualified is pkg.Name or pkg.Type.Member.
	qualified = regexp.MustCompile(`^([a-z]\w*)\.([A-Za-z]\w*)(?:\.([A-Za-z]\w*))?$`)
)

// pkgDecls is what one package declares at top level.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool // type → fields and methods
	embeds  map[string][]string        // type → embedded types of this package
}

// TestDocsResolve keeps the prose tied to the code: in DESIGN.md,
// EXPERIMENTS.md and README.md,
//   - every backticked repo path exists (a path whose first element is a
//     top-level directory or an internal package, or a bare *.go file name);
//   - every backticked pkg.Name, pkg a package of this module, is declared;
//   - every backticked pkg.Type.Member names a field or method of that type.
//
// References that contain '_' after the package name are bench metric keys
// (tcp.ns_per_segment), not identifiers, and are skipped.
func TestDocsResolve(t *testing.T) {
	pkgs, goFiles := parseTree(t)
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range backticked.FindAllStringSubmatch(string(text), -1) {
			ref := m[1]
			switch {
			case repoPath.MatchString(ref):
				if p, ok := anchoredPath(strings.TrimSuffix(ref, "/")); ok {
					if _, err := os.Stat(p); err != nil {
						t.Errorf("%s: path `%s` does not exist", doc, ref)
					}
				}
			case goFile.MatchString(ref):
				if !goFiles[ref] {
					t.Errorf("%s: no file named `%s` in the tree", doc, ref)
				}
			case qualified.MatchString(ref):
				if strings.Contains(ref, "_") {
					continue
				}
				sm := qualified.FindStringSubmatch(ref)
				decls, ok := pkgs[sm[1]]
				if !ok {
					continue // a standard-library package or a local variable
				}
				if !decls.names[sm[2]] {
					t.Errorf("%s: `%s`: %s declares no %s", doc, ref, sm[1], sm[2])
				} else if sm[3] != "" && !decls.hasMember(sm[2], sm[3], 0) {
					t.Errorf("%s: `%s`: %s.%s has no field or method %s", doc, ref, sm[1], sm[2], sm[3])
				}
			}
		}
	}
}

// anchoredPath resolves a path reference whose first element is a top-level
// directory (internal/aqm) or an internal package (core/pi2_test.go); any
// other slash-separated text (math/cmplx, events/op) is not a repo path.
func anchoredPath(ref string) (string, bool) {
	first, _, _ := strings.Cut(ref, "/")
	if fi, err := os.Stat(first); err == nil && fi.IsDir() {
		return ref, true
	}
	if fi, err := os.Stat(filepath.Join("internal", first)); err == nil && fi.IsDir() {
		return filepath.Join("internal", ref), true
	}
	return "", false
}

// parseTree parses every Go file of the module (bench/ is its own module)
// and indexes the declarations by package name, folding external _test
// packages into the package they test. It also returns the set of Go file
// base names.
func parseTree(t *testing.T) (map[string]*pkgDecls, map[string]bool) {
	t.Helper()
	pkgs := map[string]*pkgDecls{}
	goFiles := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		goFiles[d.Name()] = true
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		p := pkgs[name]
		if p == nil {
			p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
			pkgs[name] = p
		}
		p.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, goFiles
}

func (p *pkgDecls) add(f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
				continue
			}
			if typ := typeName(d.Recv.List[0].Type); typ != "" {
				p.member(typ)[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					p.addFields(s.Name.Name, s.Type)
				}
			}
		}
	}
}

func (p *pkgDecls) addFields(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch e := expr.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if emb := typeName(f.Type); emb != "" {
				p.member(typ)[emb] = true
				p.embeds[typ] = append(p.embeds[typ], emb)
			}
			continue
		}
		for _, n := range f.Names {
			p.member(typ)[n.Name] = true
		}
	}
}

func (p *pkgDecls) member(typ string) map[string]bool {
	m := p.members[typ]
	if m == nil {
		m = map[string]bool{}
		p.members[typ] = m
	}
	return m
}

// hasMember reports whether typ, or a type it embeds, has the member.
func (p *pkgDecls) hasMember(typ, member string, depth int) bool {
	if p.members[typ][member] {
		return true
	}
	if depth > 4 {
		return false
	}
	for _, emb := range p.embeds[typ] {
		if p.hasMember(emb, member, depth+1) {
			return true
		}
	}
	return false
}

// typeName returns the package-local name of T, *T or T[...], or "" for
// anything else (including types from other packages).
func typeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}
