package apitext

import (
	"strings"
	"testing"
)

// TestDumpAliasMembers: an alias of a type from the module's internal
// packages lists that type's exported fields (embedded ones included) and
// methods, through an alias of an alias, and none of the unexported ones;
// an alias of a type from outside the module lists only itself.
func TestDumpAliasMembers(t *testing.T) {
	got, err := Dump("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"Engine.Workers int",
		"Options.*Ptr",
		"Options.Label string",
		"Options.Named",
		"Options.Width int",
		"func (*Engine) Run()",
		"func (*Options) Apply(n int) error",
		"func (Options) String() string",
		"type Builder = strings.Builder",
		"type Engine = inner.Engine",
		"type Local struct { A int local int }",
		"type Options = inner.Options",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("Dump(testdata/mod):\n%s\nwant:\n%s", got, want)
	}
}
