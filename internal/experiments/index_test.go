package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestDesignIndexMatchesAll keeps DESIGN.md's "Per-experiment index" in step
// with the registry: the table's ID column must name exactly the IDs of
// All(), so every documented `cmd/experiments run <id>` resolves and every
// registered experiment is documented.
func TestDesignIndexMatchesAll(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Per-experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"Per-experiment index\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	var documented []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			continue // not a table row
		}
		id := strings.TrimSpace(cells[1])
		if id == "ID" || strings.HasPrefix(id, "---") {
			continue // header and separator
		}
		documented = append(documented, id)
	}
	var registered []string
	for _, e := range All() {
		registered = append(registered, e.ID)
	}
	slices.Sort(documented)
	slices.Sort(registered)
	if !slices.Equal(documented, registered) {
		t.Errorf("DESIGN.md index IDs differ from All():\n  index: %v\n  All(): %v", documented, registered)
	}
}
