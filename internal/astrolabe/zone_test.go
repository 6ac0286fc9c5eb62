package astrolabe

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestValidateZonePath(t *testing.T) {
	valid := []string{"/", "/usa", "/usa/ny", "/usa/ny/ithaca", "/r0/z1/n2"}
	for _, p := range valid {
		if err := ValidateZonePath(p); err != nil {
			t.Errorf("ValidateZonePath(%q) = %v, want nil", p, err)
		}
	}
	invalid := []string{"", "usa", "/usa/", "//", "/usa//ny", "/us a", "/a/b "}
	for _, p := range invalid {
		if err := ValidateZonePath(p); err == nil {
			t.Errorf("ValidateZonePath(%q) = nil, want error", p)
		}
	}
}

// TestValidateZonePathBoundsDepth: a path is at most MaxZoneDepth levels
// deep, so every zone on a node's chain is a bit of its routed marks.
func TestValidateZonePathBoundsDepth(t *testing.T) {
	deepest := strings.Repeat("/z", MaxZoneDepth)
	if err := ValidateZonePath(deepest); err != nil {
		t.Errorf("a %d-level path was refused: %v", MaxZoneDepth, err)
	}
	if err := ValidateZonePath(deepest + "/z"); err == nil {
		t.Errorf("a %d-level path was accepted", MaxZoneDepth+1)
	}
}

func TestParentZone(t *testing.T) {
	tests := []struct {
		give       string
		wantParent string
		wantOK     bool
	}{
		{"/", "", false},
		{"/usa", "/", true},
		{"/usa/ny", "/usa", true},
		{"/usa/ny/ithaca", "/usa/ny", true},
	}
	for _, tt := range tests {
		got, ok := ParentZone(tt.give)
		if got != tt.wantParent || ok != tt.wantOK {
			t.Errorf("ParentZone(%q) = %q, %v; want %q, %v", tt.give, got, ok, tt.wantParent, tt.wantOK)
		}
	}
}

func TestZoneName(t *testing.T) {
	tests := []struct {
		give, want string
	}{
		{"/", ""},
		{"/usa", "usa"},
		{"/usa/ny", "ny"},
	}
	for _, tt := range tests {
		if got := ZoneName(tt.give); got != tt.want {
			t.Errorf("ZoneName(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestJoinZone(t *testing.T) {
	for _, c := range []struct{ parent, child, want string }{{"/", "usa", "/usa"}, {"/usa", "ny", "/usa/ny"}} {
		if got := JoinZone(c.parent, c.child); got != c.want {
			t.Errorf("JoinZone(%s, %s) = %q", c.parent, c.child, got)
		}
		if got := string(AppendJoinZone([]byte("x"), c.parent, c.child)); got != "x"+c.want {
			t.Errorf("AppendJoinZone(x, %s, %s) = %q", c.parent, c.child, got)
		}
	}
}

func TestAncestorChain(t *testing.T) {
	got := AncestorChain("/usa/ny")
	want := []string{"/", "/usa", "/usa/ny"}
	if len(got) != len(want) {
		t.Fatalf("chain = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v", got, want)
		}
	}
	root := AncestorChain("/")
	if len(root) != 1 || root[0] != "/" {
		t.Fatalf("root chain = %v", root)
	}
}

func TestZoneContains(t *testing.T) {
	tests := []struct {
		ancestor, path string
		want           bool
	}{
		{"/", "/anything/below", true},
		{"/", "/", true},
		{"/usa", "/usa", true},
		{"/usa", "/usa/ny", true},
		{"/usa", "/usavirgin", false},
		{"/usa/ny", "/usa", false},
		{"/asia", "/usa/ny", false},
	}
	for _, tt := range tests {
		if got := ZoneContains(tt.ancestor, tt.path); got != tt.want {
			t.Errorf("ZoneContains(%q, %q) = %v, want %v", tt.ancestor, tt.path, got, tt.want)
		}
	}
}

func TestCommonAncestor(t *testing.T) {
	tests := []struct {
		a, b, want string
	}{
		{"/usa/ny", "/usa/ca", "/usa"},
		{"/usa/ny", "/asia/jp", "/"},
		{"/usa/ny", "/usa/ny", "/usa/ny"},
		{"/usa", "/usa/ny", "/usa"},
		{"/", "/usa", "/"},
	}
	for _, tt := range tests {
		if got := CommonAncestor(tt.a, tt.b); got != tt.want {
			t.Errorf("CommonAncestor(%q, %q) = %q, want %q", tt.a, tt.b, got, tt.want)
		}
	}
}

// TestZoneScansMatchAncestorChain holds the string-scanning ZoneContains,
// CommonAncestor and ChildToward to their definitions over AncestorChain,
// for every pair of a path set chosen for its traps: a sibling whose name
// extends another's ("/a/b" vs "/a/bc"), the root, equal paths, and
// ancestors at every depth.
func TestZoneScansMatchAncestorChain(t *testing.T) {
	paths := []string{
		"/", "/a", "/ab", "/b", "/a/b", "/a/bc", "/a/b/c", "/a/b/cd", "/a/bc/c",
		"/ab/b", "/a/b/c/d", "/usa/ny", "/usa/nyc", "/usa/ny/ithaca",
	}
	for _, a := range paths {
		for _, b := range paths {
			ca, cb := AncestorChain(a), AncestorChain(b)
			wantContains := false
			for _, z := range cb {
				wantContains = wantContains || z == a
			}
			if got := ZoneContains(a, b); got != wantContains {
				t.Errorf("ZoneContains(%q, %q) = %v, want %v", a, b, got, wantContains)
			}
			wantCommon := RootZone
			for i := 0; i < len(ca) && i < len(cb) && ca[i] == cb[i]; i++ {
				wantCommon = ca[i]
			}
			if got := CommonAncestor(a, b); got != wantCommon {
				t.Errorf("CommonAncestor(%q, %q) = %q, want %q", a, b, got, wantCommon)
			}
			wantChild, wantOK := "", wantContains && a != b
			if wantOK {
				wantChild = cb[len(ca)]
			}
			if got, ok := ChildToward(a, b); got != wantChild || ok != wantOK {
				t.Errorf("ChildToward(%q, %q) = %q, %v; want %q, %v", a, b, got, ok, wantChild, wantOK)
			}
		}
	}
}

func TestChildToward(t *testing.T) {
	tests := []struct {
		ancestor, descendant, want string
		wantOK                     bool
	}{
		{"/", "/usa/ny", "/usa", true},
		{"/usa", "/usa/ny/ithaca", "/usa/ny", true},
		{"/usa", "/usa", "", false},
		{"/usa", "/asia/jp", "", false},
		{"/usa/ny", "/usa", "", false},
	}
	for _, tt := range tests {
		got, ok := ChildToward(tt.ancestor, tt.descendant)
		if got != tt.want || ok != tt.wantOK {
			t.Errorf("ChildToward(%q, %q) = %q, %v; want %q, %v",
				tt.ancestor, tt.descendant, got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestZoneDepth(t *testing.T) {
	tests := []struct {
		give string
		want int
	}{
		{"/", 0},
		{"/usa", 1},
		{"/usa/ny", 2},
		{"/usa/ny/ithaca", 3},
	}
	for _, tt := range tests {
		if got := ZoneDepth(tt.give); got != tt.want {
			t.Errorf("ZoneDepth(%q) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

// Property: for any valid two-level path built from clean segments,
// JoinZone(ParentZone(p)) reconstructs p and the ancestor chain is
// consistent with ZoneDepth.
func TestQuickZonePathAlgebra(t *testing.T) {
	clean := func(s string) string {
		out := make([]rune, 0, len(s))
		for _, r := range s {
			if r >= 'a' && r <= 'z' {
				out = append(out, r)
			}
		}
		if len(out) == 0 {
			return "x"
		}
		return string(out)
	}
	f := func(rawA, rawB string) bool {
		a, b := clean(rawA), clean(rawB)
		p := JoinZone(JoinZone("/", a), b)
		if ValidateZonePath(p) != nil {
			return false
		}
		parent, ok := ParentZone(p)
		if !ok || JoinZone(parent, ZoneName(p)) != p {
			return false
		}
		chain := AncestorChain(p)
		if len(chain) != ZoneDepth(p)+1 {
			return false
		}
		for _, anc := range chain {
			if !ZoneContains(anc, p) {
				return false
			}
		}
		child, ok := ChildToward("/", p)
		return ok && child == JoinZone("/", a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
