package wormsim

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameLiveCode keeps README.md, DESIGN.md and EXPERIMENTS.md from
// naming code that is gone: every cmd/<x> or internal/<x> path they mention
// must be a directory, and every Benchmark<Name> a declared benchmark. The
// whole text is scanned, not only back-quoted spans, so fenced and indented
// blocks (the command list, the repository layout) are covered too.
func TestDocsNameLiveCode(t *testing.T) {
	declared := declaredBenchmarks(t)
	refs := []struct {
		kind   string
		re     *regexp.Regexp
		exists func(ref string) bool
	}{
		{"directory", regexp.MustCompile(`\b(?:cmd|internal)/[a-z0-9_]+`), func(ref string) bool {
			fi, err := os.Stat(ref)
			return err == nil && fi.IsDir()
		}},
		{"benchmark", regexp.MustCompile(`\bBenchmark[A-Z][A-Za-z0-9_]*`), func(ref string) bool {
			return declared[ref]
		}},
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, r := range refs {
				for _, ref := range r.re.FindAllString(line, -1) {
					if !r.exists(ref) {
						t.Errorf("%s:%d: names %s %s, which does not exist", doc, i+1, r.kind, ref)
					}
				}
			}
		}
	}
}

// declaredBenchmarks returns the name of every func Benchmark* in the
// module's test files.
func declaredBenchmarks(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Benchmark[A-Za-z0-9_]*)\(`)
	declared := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}
