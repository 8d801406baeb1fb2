// Command testonly lists exported identifiers in internal/ that no
// program uses: declared in non-test code, named in no other non-test
// file of the module or of the bench/ module. It exits 1 when the list
// is not empty, so production code keeps no symbol that only tests
// reach. Run it from the repository root:
//
//	go run ./scripts/testonly
//
// Methods that satisfy a standard-library interface (String, Error,
// MarshalJSON, ...) are exempt, and so is every "pkg.Name  reason"
// line of scripts/testonly.allow.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// stdMethods are method names the standard library calls through an
// interface, so a declaration with no caller by name is still used.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true,
}

type decl struct {
	key string // pkg.Name, or pkg.Type.Method
	pos token.Pos
}

func main() {
	allow, err := readAllow("scripts/testonly.allow")
	if err != nil {
		fmt.Fprintln(os.Stderr, "testonly:", err)
		os.Exit(2)
	}
	fset := token.NewFileSet()
	uses := map[string]int{} // name -> non-test occurrences outside declarations
	var decls []decl
	declPos := map[token.Pos]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, dc := range exported(f) {
				decls = append(decls, dc)
				declPos[dc.pos] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declPos[id.Pos()] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "testonly:", err)
		os.Exit(2)
	}
	var unused []string
	for _, dc := range decls {
		name := dc.key[strings.LastIndexByte(dc.key, '.')+1:]
		if uses[name] > 0 || allow[dc.key] {
			continue
		}
		unused = append(unused, fmt.Sprintf("%s: %s", fset.Position(dc.pos), dc.key))
	}
	sort.Strings(unused)
	for _, u := range unused {
		fmt.Println(u)
	}
	if len(unused) > 0 {
		fmt.Fprintf(os.Stderr, "testonly: %d exported identifiers have no non-test use; delete them, move them into a _test.go file, or list them in scripts/testonly.allow\n", len(unused))
		os.Exit(1)
	}
}

// exported returns the exported package-level names and methods
// declared in f, keyed pkg.Name or pkg.Type.Method.
func exported(f *ast.File) []decl {
	pkg := f.Name.Name
	var out []decl
	add := func(id *ast.Ident, key string) {
		if id.IsExported() {
			out = append(out, decl{key, id.Pos()})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, pkg+"."+d.Name.Name)
				continue
			}
			if stdMethods[d.Name.Name] {
				continue
			}
			if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) {
				add(d.Name, pkg+"."+recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, pkg+"."+s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, pkg+"."+id.Name)
					}
				}
			}
		}
	}
	return out
}

// recvName returns the type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// readAllow reads "pkg.Name  reason" lines; blank lines and lines
// starting with # are skipped, and every entry must give a reason.
func readAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name  reason\"", path, ln)
		}
		allow[fields[0]] = true
	}
	return allow, sc.Err()
}
