// Import-layering tests: the mining core and the paper baselines must stay
// importable without the serving stack, so a server-side change can never
// leak into what the equivalence suites and the paper reproduction measure.
package cspm_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// layerRule forbids every package in from to import, directly or through
// other internal packages, any package in to.
type layerRule struct {
	name     string
	from, to []string
}

var layerRules = []layerRule{
	{
		name: "mining core stays below serving",
		from: []string{"intset", "epoch", "graph", "mdl", "invdb", "cspm", "shardcache", "shardrpc"},
		to:   []string{"serve", "serveclient", "wal", "obs", "cli"},
	},
	{
		name: "paper baselines stay independent of CSPM and serving",
		from: []string{"vog", "slim", "krimp", "fim"},
		to:   []string{"serve", "cspm"},
	},
}

// internalImports parses the non-test Go files under dir and returns, per
// package (its path below dir), the internal packages it imports.
func internalImports(t *testing.T, dir string) map[string][]string {
	t.Helper()
	const prefix = "cspm/internal/"
	imports := make(map[string][]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg = filepath.ToSlash(pkg)
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if dep, ok := strings.CutPrefix(p, prefix); ok && !slices.Contains(imports[pkg], dep) {
				imports[pkg] = append(imports[pkg], dep)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return imports
}

// layeringViolations reports every forbidden (from, to) pair the import
// graph connects, as "from -> to: rule".
func layeringViolations(imports map[string][]string, rules []layerRule) []string {
	var out []string
	for _, r := range rules {
		for _, from := range r.from {
			seen := map[string]bool{from: true}
			stack := []string{from}
			for len(stack) > 0 {
				pkg := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, dep := range imports[pkg] {
					if !seen[dep] {
						seen[dep] = true
						stack = append(stack, dep)
					}
				}
			}
			for _, to := range r.to {
				if seen[to] {
					out = append(out, from+" -> "+to+": "+r.name)
				}
			}
		}
	}
	return out
}

func TestImportLayering(t *testing.T) {
	repo := internalImports(t, "internal")
	if !slices.Contains(repo["cspm"], "invdb") || !slices.Contains(repo["serve"], "cspm") {
		t.Fatalf("import graph looks wrong: cspm -> %v, serve -> %v", repo["cspm"], repo["serve"])
	}
	for _, c := range []struct {
		name  string
		extra [][2]string // synthetic edges added to the real graph
		want  string      // a violation that must be reported ("" = none at all)
	}{
		{name: "repository"},
		{name: "direct core edge", extra: [][2]string{{"shardrpc", "obs"}}, want: "shardrpc -> obs: mining core stays below serving"},
		{name: "transitive baseline edge", extra: [][2]string{{"intset", "cspm"}}, want: "fim -> cspm: paper baselines stay independent of CSPM and serving"},
	} {
		imports := make(map[string][]string, len(repo))
		for pkg, deps := range repo {
			imports[pkg] = slices.Clone(deps)
		}
		for _, e := range c.extra {
			imports[e[0]] = append(imports[e[0]], e[1])
		}
		got := layeringViolations(imports, layerRules)
		if c.want == "" && len(got) > 0 {
			t.Errorf("%s: layering violations:\n%s", c.name, strings.Join(got, "\n"))
		}
		if c.want != "" && !slices.Contains(got, c.want) {
			t.Errorf("%s: checker missed %q; reported %q", c.name, c.want, got)
		}
	}
}
