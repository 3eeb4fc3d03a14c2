package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixtures type-checks the named fixture packages under testdata/src
// through the real loader, so every analyzer test also exercises Load.
func loadFixtures(t *testing.T, dirs ...string) []*Package {
	t.Helper()
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./testdata/src/" + d
	}
	pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", dirs, err)
	}
	if len(pkgs) < len(dirs) {
		t.Fatalf("loaded %d packages for %d fixture dirs", len(pkgs), len(dirs))
	}
	return pkgs
}

// want is one expectation parsed from a `// want: substring` marker: the
// named analyzer must report a diagnostic on that line whose message
// contains the substring.
type want struct {
	file   string
	line   int
	substr string
}

func readWants(t *testing.T, dirs ...string) []want {
	t.Helper()
	var wants []want
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no fixture files in %s (err=%v)", dir, err)
		}
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				text := sc.Text()
				if i := strings.Index(text, "// want:"); i >= 0 {
					wants = append(wants, want{
						file:   filepath.Base(path),
						line:   line,
						substr: strings.TrimSpace(text[i+len("// want:"):]),
					})
				}
			}
			f.Close()
		}
	}
	return wants
}

// checkFixture runs one analyzer over the fixture packages and requires
// its diagnostics to match the `// want:` markers exactly — no missing
// findings, no extras.
func checkFixture(t *testing.T, an *Analyzer, dirs ...string) {
	t.Helper()
	pkgs := loadFixtures(t, dirs...)
	diags, err := RunAnalyzers(pkgs, []*Analyzer{an})
	if err != nil {
		t.Fatal(err)
	}
	wants := readWants(t, dirs...)
	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		for i, w := range wants {
			if !matched[i] && w.file == base && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic at %s:%d containing %q", w.file, w.line, w.substr)
		}
	}
}

func TestImmutableAnalyzer(t *testing.T) {
	checkFixture(t, ImmutableAnalyzer, "treap", "store")
}

func TestErrwrapAnalyzer(t *testing.T) {
	checkFixture(t, ErrwrapAnalyzer, "errs")
}

func TestCtxloopAnalyzer(t *testing.T) {
	checkFixture(t, CtxloopAnalyzer, "engine", "worker", "replica")
}

func TestObssafeAnalyzer(t *testing.T) {
	checkFixture(t, ObssafeAnalyzer, "obs", "obsuser")
}

func TestLocksafeAnalyzer(t *testing.T) {
	checkFixture(t, LocksafeAnalyzer, "locks", "lockorder")
}

func TestLeakcheckAnalyzer(t *testing.T) {
	checkFixture(t, LeakcheckAnalyzer, "leakres", "leaksrv", "cursor")
}

func TestSnapshotEscapeAnalyzer(t *testing.T) {
	checkFixture(t, SnapshotEscapeAnalyzer, "pescape", "pescapeuser")
}

// TestLoadRealPackage loads a real repository package with its stdlib
// imports resolved through export data.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load("../..", "./internal/treap")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Name != "treap" {
		t.Fatalf("got %d packages, want exactly internal/treap", len(pkgs))
	}
	if pkgs[0].Types.Scope().Lookup("Tree") == nil {
		t.Fatalf("loaded treap package has no Tree type")
	}
}

// TestSuiteSelfClean runs the full suite — the CFG dataflow analyzers
// included — over every package in the module: the invariants must hold
// in the real tree with zero findings and no suppressions (make lint
// enforces the same repo-wide; this test pins it under plain go test).
func TestSuiteSelfClean(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding in real tree: %s", d)
	}
}
