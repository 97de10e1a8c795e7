package monadic

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docName matches the contents of a backticked span that reads as a Go
// name: Name, x.Name or (*T).Name, optionally followed by a call's
// parenthesized arguments. The groups are T and the dotted name.
var docName = regexp.MustCompile(`^(?:\(\*(\w+)\)\.)?(\w+(?:\.\w+)*)(?:\(.*\))?$`)

// TestDocNamesDeclared holds DESIGN.md and README.md to the code: every
// Go name they state in backticks must be declared somewhere in the tree
// (benchledger/, a module of its own, excepted), so a rename or a
// deletion cannot leave the docs describing code that is gone. Only the
// parts of a name that contain an upper-case letter are checked, which
// leaves datalog atoms such as bag(V,X0,X1) alone; a name whose first
// part is a standard-library package the tree imports (context.Canceled)
// is skipped, and so are a file name such as BENCH_ra.json and an
// environment variable such as FAULTINJECT, written in capitals only.
// CHANGES.md and EXPERIMENTS.md record history and are not checked.
func TestDocNamesDeclared(t *testing.T) {
	declared, stdlib := treeNames(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		fenced := false
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(text), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			spans := strings.Split(text, "`")
			for i := 1; i < len(spans)-1; i += 2 {
				if name := undeclared(spans[i], declared, stdlib); name != "" {
					t.Errorf("%s:%d: `%s` names %s, which nothing in the tree declares", doc, line, spans[i], name)
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// undeclared returns the first part of the backticked span that should
// name a declaration and does not, or "" if there is none.
func undeclared(span string, declared, stdlib map[string]bool) string {
	m := docName.FindStringSubmatch(span)
	if m == nil || strings.HasSuffix(m[2], ".json") || strings.HasSuffix(m[2], ".md") || strings.ToUpper(span) == span {
		return ""
	}
	parts := strings.Split(m[2], ".")
	if m[1] != "" {
		parts = append([]string{m[1]}, parts...)
	}
	if stdlib[parts[0]] {
		return ""
	}
	for _, p := range parts {
		if strings.ToLower(p) != p && !declared[p] {
			return p
		}
	}
	return ""
}

// treeNames parses every Go file of the tree outside benchledger/ and
// returns the names it declares — functions, methods, types, variables,
// constants, struct fields and interface methods — and the names of the
// standard-library packages it imports.
func treeNames(t *testing.T) (declared, stdlib map[string]bool) {
	t.Helper()
	declared, stdlib = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchledger" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if strings.Contains(strings.Split(ipath, "/")[0], ".") || strings.HasPrefix(ipath, "repro") {
				continue
			}
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			stdlib[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name.Name] = true
			case *ast.TypeSpec:
				declared[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id.Name] = true
				}
			case *ast.StructType:
				addFieldNames(declared, n.Fields)
			case *ast.InterfaceType:
				addFieldNames(declared, n.Methods)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared, stdlib
}

func addFieldNames(declared map[string]bool, fields *ast.FieldList) {
	for _, f := range fields.List {
		for _, id := range f.Names {
			declared[id.Name] = true
		}
	}
}
