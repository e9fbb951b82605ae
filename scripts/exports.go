//go:build ignore

// exports counts a package's exported identifiers: its exported
// top-level functions, types, variables and constants, the exported
// methods and struct fields of its exported types, and nothing else — a
// doc comment's wording cannot move the figure. _test.go files do not
// count.
//
// Usage: go run scripts/exports.go dir...   (prints one count per dir)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	for _, dir := range os.Args[1:] {
		n, err := count(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(n)
	}
}

func count(dir string) (int, error) {
	notTest := func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, notTest, parser.SkipObjectResolution)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				n += countDecl(decl)
			}
		}
	}
	return n, nil
}

func countDecl(decl ast.Decl) int {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil || exportedRecv(d.Recv.List[0].Type) {
			return exported(d.Name)
		}
	case *ast.GenDecl:
		n := 0
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, name := range s.Names {
					n += exported(name)
				}
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				n++
				if st, ok := s.Type.(*ast.StructType); ok {
					n += countFields(st.Fields)
				}
			}
		}
		return n
	}
	return 0
}

// countFields counts a struct's exported fields, embedded ones by their
// type's name.
func countFields(fields *ast.FieldList) int {
	n := 0
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if exportedRecv(f.Type) {
				n++
			}
			continue
		}
		for _, name := range f.Names {
			n += exported(name)
		}
	}
	return n
}

// exportedRecv reports whether a receiver or embedded type names an
// exported type: T, *T, T[P] or pkg.T.
func exportedRecv(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.StarExpr:
		return exportedRecv(t.X)
	case *ast.IndexExpr:
		return exportedRecv(t.X)
	case *ast.IndexListExpr:
		return exportedRecv(t.X)
	case *ast.SelectorExpr:
		return t.Sel.IsExported()
	case *ast.Ident:
		return t.IsExported()
	}
	return false
}

func exported(name *ast.Ident) int {
	if name.IsExported() {
		return 1
	}
	return 0
}
