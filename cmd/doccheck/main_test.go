package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestRepoPackagesDocumented is the lint itself in test form: every package
// under internal/ and cmd/, plus the root package, must carry a package
// comment. Failing here means a new package landed without one.
func TestRepoPackagesDocumented(t *testing.T) {
	root := repoRoot(t)
	for _, dir := range []string{".", "internal", "cmd"} {
		offenders, err := check(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("check(%s): %v", dir, err)
		}
		for _, o := range offenders {
			t.Error(o)
		}
	}
}

// TestCheckFlagsUndocumentedPackage pins the detector on a synthetic
// undocumented package, and its acceptance of a documented one.
func TestCheckFlagsUndocumentedPackage(t *testing.T) {
	dir := t.TempDir()
	write := writer(t, dir)
	write("good/good.go", "// Package good is documented.\npackage good\n")
	write("bad/bad.go", "package bad\n")
	write("bad/other.go", "package bad\n")
	write("bad/testdata/skip/skip.go", "package skip\n") // testdata must be ignored
	write("bad/bad_test.go", "package bad\n")            // test files must not satisfy the check

	offenders, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 1 {
		t.Fatalf("want exactly the bad package flagged, got %q", offenders)
	}
	if !strings.Contains(offenders[0], "package bad") {
		t.Fatalf("offender line %q does not name package bad", offenders[0])
	}
}

// TestRepoShipsOnlyUsedAPI is the API lint in test form: no exported
// internal/ name is left that only tests use, and no exported config field
// that no program sets, with perfbench/ counted as a user.
func TestRepoShipsOnlyUsedAPI(t *testing.T) {
	root := repoRoot(t)
	var roots []string
	for _, dir := range []string{"internal", "cmd", "examples", "."} {
		roots = append(roots, filepath.Join(root, dir))
	}
	offenders, err := checkAPI(roots)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offenders {
		t.Error(o)
	}
}

// TestCheckAPIFlagsTestOnlyAPI pins the API pass on a synthetic module: an
// exported func only a test calls, a field only a test sets, a field only
// withDefaults sets and a type only a blank assertion names are flagged;
// interface methods (String, Steps, At), tagged fields and a test-support
// package are not.
func TestCheckAPIFlagsTestOnlyAPI(t *testing.T) {
	dir := t.TempDir()
	write := writer(t, dir)
	write("go.mod", "module example.com/m\n\ngo 1.22\n")
	write("internal/lib/lib.go", `// Package lib is documented.
package lib

import "fmt"

func Used()     {}
func TestOnly() {}

type Config struct {
	Set, Unset, OnlyDefault int
	Tagged                  int `+"`json:\"tagged\"`"+`
}

func (c Config) withDefaults() Config {
	if c.OnlyDefault == 0 {
		c.OnlyDefault = 3
	}
	return c
}

func (c Config) Sum() int { c = c.withDefaults(); return c.Set + c.Unset + c.OnlyDefault + c.Tagged }

type Name struct{}

func (Name) String() string { return "name" }

type Ghost struct{}

func (Ghost) String() string { return "ghost" }

var _ fmt.Stringer = Ghost{}

type Trajectory interface{ At(t float64) float64 }

type Walk struct{}

func (*Walk) At(t float64) float64 { return t }

type Stepper interface{ Steps() int }

type Tracker struct{}

func (*Tracker) Steps() int { return 0 }
`)
	write("internal/lib/lib_test.go", `package lib

import (
	"testing"

	"example.com/m/internal/support"
)

func TestLib(t *testing.T) {
	TestOnly()
	_ = Config{Unset: 1}.Sum() + support.Helper()
}
`)
	write("internal/support/support.go", "// Package support is test support.\npackage support\n\nfunc Helper() int { return 1 }\n")
	write("cmd/app/main.go", `// Command app uses lib.
package main

import (
	"fmt"

	"example.com/m/internal/lib"
)

func main() {
	lib.Used()
	var c lib.Config
	c.Set++
	var tr lib.Trajectory = &lib.Walk{}
	var st lib.Stepper = &lib.Tracker{}
	fmt.Println(c.Sum(), lib.Name{}, tr.At(1), st.Steps())
}
`)
	offenders, err := checkAPI([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, o := range offenders {
		got = append(got, o[strings.Index(o, ": ")+2:])
	}
	want := []string{
		"lib.Config.OnlyDefault is exported but no program sets it",
		"lib.Config.Unset is exported but no program sets it",
		"lib.Ghost is exported but no program uses it",
		"lib.TestOnly is exported but no program uses it",
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("offenders:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// writer returns a helper that writes content to rel under dir.
func writer(t *testing.T, dir string) func(rel, content string) {
	return func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// repoRoot walks upward from the working directory to the module root (the
// directory holding go.mod).
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
