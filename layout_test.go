package alp_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDesignPackageLayout keeps DESIGN.md §4 ("Package layout") true:
// every file and directory it lists exists, and every directory that
// holds Go files is listed.
func TestDesignPackageLayout(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 4. Package layout\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## 4. Package layout" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")

	// The tree is an indented block: an entry line names files and
	// directories before its "—", under the nearest less-indented
	// directory line; lines indented to the description column
	// continue a description. The first entry is the module root.
	type dir struct {
		indent int
		path   string
	}
	var parents []dir
	listed := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		body := strings.TrimLeft(line, " ")
		indent := len(line) - len(body)
		if indent < 4 || indent >= 20 || body == "" {
			continue
		}
		head, _, _ := strings.Cut(body, "—")
		head, _, _ = strings.Cut(head, "(")
		names := strings.Fields(strings.ReplaceAll(head, ",", " "))
		for len(parents) > 0 && parents[len(parents)-1].indent >= indent {
			parents = parents[:len(parents)-1]
		}
		if len(parents) == 0 {
			parents = append(parents, dir{indent, "."})
			continue
		}
		parent := parents[len(parents)-1].path
		for _, name := range names {
			path := filepath.Join(parent, strings.TrimSuffix(name, "/"))
			listed[path] = true
			if _, err := os.Stat(path); err != nil {
				t.Errorf("DESIGN.md §4 lists %s, which does not exist", path)
			}
			if len(names) == 1 && strings.HasSuffix(name, "/") {
				parents = append(parents, dir{indent, path})
			}
		}
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			if pkg := filepath.Dir(path); pkg != "." && !listed[pkg] {
				t.Errorf("%s holds Go files but DESIGN.md §4 does not list it", pkg)
				listed[pkg] = true // report each directory once
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
