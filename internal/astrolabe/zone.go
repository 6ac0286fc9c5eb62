// Package astrolabe reimplements the Astrolabe distributed monitoring and
// aggregation substrate the paper builds on (§3–4): a virtual hierarchy of
// zones, each a small table of attribute rows; leaf rows owned by agents;
// parent rows computed by SQL aggregation programs; all state disseminated
// by epidemic (anti-entropy) gossip with freshest-row-wins merging; row
// timeouts providing failure detection and automatic zone reconfiguration.
//
// An Agent is a passive state machine: the caller (a live runtime or the
// discrete-event simulator) delivers messages via HandleMessage and drives
// time via Tick. All randomness comes from an injected *rand.Rand so
// simulated runs are deterministic.
package astrolabe

import (
	"fmt"
	"strings"
)

// RootZone is the path of the root zone.
const RootZone = "/"

// MaxZoneDepth is the deepest zone a path may name: fifteen levels below
// the root, so a chain is at most sixteen zones, each a bit of a node's
// routed marks (cache.RoutedDepths). A million nodes at branching 16 are
// five levels deep.
const MaxZoneDepth = 15

// ValidateZonePath checks a zone path: "/" or at most MaxZoneDepth
// "/"-separated non-empty segments without whitespace, e.g.
// "/usa/ny/ithaca".
func ValidateZonePath(path string) error {
	if path == RootZone {
		return nil
	}
	if !strings.HasPrefix(path, "/") {
		return fmt.Errorf("astrolabe: zone path %q must start with /", path)
	}
	if strings.HasSuffix(path, "/") {
		return fmt.Errorf("astrolabe: zone path %q must not end with /", path)
	}
	if d := ZoneDepth(path); d > MaxZoneDepth {
		return fmt.Errorf("astrolabe: zone path %q is %d levels deep, deeper than %d", path, d, MaxZoneDepth)
	}
	for _, seg := range strings.Split(path[1:], "/") {
		if seg == "" {
			return fmt.Errorf("astrolabe: zone path %q has an empty segment", path)
		}
		if strings.ContainsAny(seg, " \t\n") {
			return fmt.Errorf("astrolabe: zone segment %q contains whitespace", seg)
		}
	}
	return nil
}

// ParentZone returns the parent of a zone path, and false for the root.
func ParentZone(path string) (string, bool) {
	if path == RootZone {
		return "", false
	}
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return RootZone, true
	}
	return path[:i], true
}

// ZoneName returns the last path segment (the row name a zone contributes
// to its parent's table). The root has no name.
func ZoneName(path string) string {
	if path == RootZone {
		return ""
	}
	i := strings.LastIndexByte(path, '/')
	return path[i+1:]
}

// JoinZone appends a child segment to a zone path.
func JoinZone(parent, child string) string {
	if parent == RootZone {
		return RootZone + child
	}
	return parent + "/" + child
}

// AppendJoinZone appends JoinZone(parent, child) to b, for a caller that
// builds the path without allocating it.
func AppendJoinZone(b []byte, parent, child string) []byte {
	b = append(b, parent...)
	if parent != RootZone {
		b = append(b, '/')
	}
	return append(b, child...)
}

// AncestorChain returns the zones from the root down to and including
// path: AncestorChain("/usa/ny") = ["/", "/usa", "/usa/ny"].
func AncestorChain(path string) []string {
	if path == RootZone {
		return []string{RootZone}
	}
	segs := strings.Split(path[1:], "/")
	chain := make([]string, 0, len(segs)+1)
	chain = append(chain, RootZone)
	cur := ""
	for _, s := range segs {
		cur = cur + "/" + s
		chain = append(chain, cur)
	}
	return chain
}

// ZoneContains reports whether zone ancestor contains (or equals) path:
// whether ancestor is on AncestorChain(path).
func ZoneContains(ancestor, path string) bool {
	if ancestor == RootZone || ancestor == path {
		return true
	}
	return len(path) > len(ancestor) && path[len(ancestor)] == '/' &&
		path[:len(ancestor)] == ancestor
}

// CommonAncestor returns the deepest zone containing both paths: the last
// zone AncestorChain(a) and AncestorChain(b) share. It scans the two
// strings in place — every gossip exchange asks it.
func CommonAncestor(a, b string) string {
	if len(a) > len(b) {
		a, b = b, a
	}
	// end is the length of the longest common prefix that ends on a
	// segment boundary of both paths.
	end, i := 0, 0
	for ; i < len(a) && a[i] == b[i]; i++ {
		if a[i] == '/' {
			end = i
		}
	}
	if i == len(a) && (len(b) == len(a) || b[i] == '/') {
		end = i // a itself contains b
	}
	if end == 0 {
		return RootZone
	}
	return a[:end]
}

// ChildToward returns the child of ancestor that lies on the path toward
// descendant, and false if descendant is not strictly below ancestor.
// ChildToward("/", "/usa/ny") = "/usa".
func ChildToward(ancestor, descendant string) (string, bool) {
	if !ZoneContains(ancestor, descendant) || ancestor == descendant {
		return "", false
	}
	// The child is the prefix of descendant one segment longer than
	// ancestor ("/" already ends in the separator).
	start := len(ancestor) + 1
	if ancestor == RootZone {
		start = 1
	}
	if i := strings.IndexByte(descendant[start:], '/'); i >= 0 {
		return descendant[:start+i], true
	}
	return descendant, true
}

// ZoneDepth returns the number of segments below the root (root = 0).
func ZoneDepth(path string) int {
	if path == RootZone {
		return 0
	}
	return strings.Count(path, "/")
}
