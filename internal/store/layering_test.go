package store_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// TestStoreImportsNoRepoPackage keeps the store a byte store: its non-test
// files import only the standard library, so artifact formats live with
// the pipeline that owns them, not here.
func TestStoreImportsNoRepoPackage(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if path == "repro" || strings.HasPrefix(path, "repro/") {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}
