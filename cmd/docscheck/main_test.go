package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommentNamesMissingMarkdown builds a throwaway module whose package
// comments name markdown files: one at the module root, one beside the
// package, and one that exists nowhere. Only the last is a problem.
func TestCommentNamesMissingMarkdown(t *testing.T) {
	root := t.TempDir()
	pkg := filepath.Join(root, "internal", "p")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(path, content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join(root, "go.mod"), "module tmp\n\ngo 1.24\n")
	write(filepath.Join(root, "GUIDE.md"), "# Guide\n")
	write(filepath.Join(pkg, "NOTES.md"), "# Notes\n")
	write(filepath.Join(pkg, "p.go"), `// Package p is specified in GUIDE.md; see also NOTES.md.
package p

// F follows the rules in MISSING.md.
func F() {}
`)
	// A test file's comments are not checked, like its identifiers.
	write(filepath.Join(pkg, "p_test.go"), "package p\n\n// See ALSO_MISSING.md.\nvar _ = F\n")

	problems, err := checkPackageDocs(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "MISSING.md") || !strings.Contains(problems[0], "p.go:4:") {
		t.Fatalf("problems = %q, want exactly one naming MISSING.md at p.go:4", problems)
	}

	write(filepath.Join(root, "MISSING.md"), "# Now present\n")
	if problems, err := checkPackageDocs(pkg); err != nil || len(problems) != 0 {
		t.Fatalf("after creating MISSING.md: problems = %q, err = %v; want none", problems, err)
	}
}
