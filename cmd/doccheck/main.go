// Command doccheck enforces the repository's documentation and API floors.
// CI runs it over internal/, cmd/, examples/ and the module root, and it
// fails the build on either of two kinds of offender:
//
//   - a Go package without a package comment (a doc comment on its package
//     clause, per go/doc conventions), so the godoc coverage established by
//     the documentation pass cannot silently erode;
//   - exported API in internal/ that only tests need: an exported
//     package-level identifier or method that no non-test file under the
//     roots references, or an exported, untagged struct field that no
//     non-test code writes outside a withDefaults (a field that only ever
//     holds its default is a constant, not a setting).
//
// Usage:
//
//	doccheck root [root...]
//
// Each root is walked recursively; testdata and hidden directories are
// skipped, as are test files and test-only packages (*_test). The API pass
// type-checks every package under the roots from source with go/types, so
// a nested module under a root (perfbench/ under .) counts as a user of the
// packages it imports. A method counts as used when its receiver type
// satisfies an interface that carries it (String through fmt.Stringer, a
// trajectory's At); a blank `var _ I = T{}` assertion is not a use. A
// field write is a composite-literal key or position, an assignment,
// ++/--, &x.F, or a pointer method called on x.F. A package that tests
// import and no non-test code does is test support and exempt. Exit status
// is 1 when anything fails, with one line per offender.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 || strings.HasPrefix(roots[0], "-") {
		fmt.Fprintln(os.Stderr, "usage: doccheck root [root...]")
		os.Exit(2)
	}
	var docs []string
	for _, root := range roots {
		offenders, err := check(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		docs = append(docs, offenders...)
	}
	api, err := checkAPI(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	for _, b := range append(docs, api...) {
		fmt.Println(b)
	}
	if len(docs)+len(api) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented package(s), %d test-only exported name(s) or unset field(s)\n", len(docs), len(api))
		os.Exit(1)
	}
}

// check walks root and returns one "dir: package p has no package comment"
// line per offending package, sorted by directory.
func check(root string) ([]string, error) {
	var bad []string
	err := walkDirs(root, func(dir string) error {
		pkgs, err := parseDir(dir)
		if err != nil {
			return fmt.Errorf("%s: %w", dir, err)
		}
		for pkgName, documented := range pkgs {
			if !documented {
				bad = append(bad, fmt.Sprintf("%s: package %s has no package comment", dir, pkgName))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(bad)
	return bad, nil
}

// parseDir parses just the package clauses (and their doc comments) of the
// Go files directly in dir and reports, per non-test package, whether any
// of its files carries a non-empty package comment. Directories with no Go
// files yield an empty map.
func parseDir(dir string) (map[string]bool, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkgs := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return nil, err
		}
		name := f.Name.Name
		if strings.HasSuffix(name, "_test") {
			continue
		}
		pkgs[name] = pkgs[name] || (f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "")
	}
	return pkgs, nil
}
