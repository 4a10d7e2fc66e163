package transform

import (
	"flag"
	"os"
	"testing"

	"github.com/omp4go/omp4go/internal/minipy"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/clauses_typed.golden from the current lowering")

func lowered(t *testing.T, file string) string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := minipy.Parse(string(src), file)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Module(mod); err != nil {
		t.Fatal(err)
	}
	return minipy.Unparse(mod)
}

// TestGoldenLowering pins the lowering of every data-sharing clause
// twice: for a module without int/float annotations, whose output must
// stay byte for byte what the commit before typed copies produced
// (clauses_untyped.golden was written by that commit's transform and is
// never regenerated), and for the same module with its originals
// annotated, where each copy is a declaration of its original's type.
func TestGoldenLowering(t *testing.T) {
	if *updateGolden {
		if err := os.WriteFile("testdata/clauses_typed.golden", []byte(lowered(t, "testdata/clauses_typed.py")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"untyped", "typed"} {
		want, err := os.ReadFile("testdata/clauses_" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if got := lowered(t, "testdata/clauses_"+name+".py"); got != string(want) {
			t.Errorf("%s module lowers differently from testdata/clauses_%s.golden:\n%s", name, name, got)
		}
	}
}
