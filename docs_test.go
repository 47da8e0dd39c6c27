package pregelnet

import (
	"os"
	"reflect"
	"regexp"
	"testing"

	"pregelnet/internal/core"
)

// TestDocsNameLiveJobSpecFields checks that every `JobSpec.<Name>` the
// user-facing documents mention is an exported field of core.JobSpec, so a
// deleted or renamed setting cannot linger in the docs.
func TestDocsNameLiveJobSpecFields(t *testing.T) {
	spec := reflect.TypeFor[core.JobSpec[uint32]]()
	mention := regexp.MustCompile(`JobSpec\.([A-Za-z_][A-Za-z0-9_]*)`)
	for _, path := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllSubmatch(data, -1) {
			name := string(m[1])
			if f, ok := spec.FieldByName(name); !ok || !f.IsExported() {
				t.Errorf("%s names JobSpec.%s, which is not a field of core.JobSpec", path, name)
			}
		}
	}
}
