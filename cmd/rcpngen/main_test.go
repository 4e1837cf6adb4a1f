package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestBuildPackage builds a package of this module through a relative and
// an absolute path, and refuses a directory outside the module.
func TestBuildPackage(t *testing.T) {
	rel := filepath.Join("..", "..", "internal", "genpipe5")
	abs, err := filepath.Abs(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{rel, abs} {
		if err := buildPackage(dir); err != nil {
			t.Errorf("buildPackage(%q): %v", dir, err)
		}
	}
	err = buildPackage(t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "must live inside the module") {
		t.Errorf("buildPackage outside the module: %v, want a refusal", err)
	}
}
