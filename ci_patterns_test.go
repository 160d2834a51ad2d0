package sjos

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsSelectTests: every alternative of every -run and -bench
// argument in the Makefile and the CI workflow names at least one Test,
// Benchmark or Fuzz function of the module (benchmark/ is its own module). A
// deleted or renamed test otherwise leaves a suite that silently selects
// nothing.
func TestCIRunPatternsSelectTests(t *testing.T) {
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	argRE := regexp.MustCompile(`-(?:run|bench)[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)
	checked := 0
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			for _, m := range argRE.FindAllStringSubmatch(line, -1) {
				arg := m[1] + m[2] + m[3]
				if file == "Makefile" {
					arg = strings.ReplaceAll(arg, "$$", "$")
				}
				if arg == "$(BENCH)" || arg == "^$" {
					continue
				}
				for _, alt := range strings.Split(arg, "|") {
					// A subtest selector's first element names the function.
					re, err := regexp.Compile(strings.Split(alt, "/")[0])
					if err != nil {
						t.Errorf("%s:%d: %q: %v", file, i+1, alt, err)
						continue
					}
					checked++
					found := false
					for _, f := range funcs {
						if re.MatchString(f) {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("%s:%d: %q selects no Test, Benchmark or Fuzz function", file, i+1, alt)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -bench patterns to check")
	}
}
