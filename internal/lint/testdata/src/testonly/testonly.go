// Package testonly breaks rule 2 once on every line marked want: no
// non-test code reaches the export declared there.
package testonly

import "errors"

// Used is reached by Orphaned's neighbour below.
func Used() int { return 1 }

var used = Used()

func OnlyTests() int { return 2 } // want "testonly.OnlyTests is reached only by tests"

// Recursive calls itself, which is not a use.
func Recursive(n int) int { // want "testonly.Recursive is reached only by tests"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

type Kind int

const (
	KindA Kind = iota
	KindB      // want "testonly.KindB is reached only by tests"
)

var ErrUnused = errors.New("unused") // want "testonly.ErrUnused is reached only by tests"

// Named is satisfied by Leaf only through the Pos it promotes from at.
type Named interface {
	Pos() int
	Name() string
}

type at int

func (a at) Pos() int { return int(a) }

func (at) End() int { return 0 } // want "testonly.at.End is reached only by tests"

type Leaf struct{ at }

func (Leaf) Name() string { return "leaf" }

// Failure satisfies error; Retry satisfies nothing.
type Failure struct{}

func (*Failure) Error() string { return "failure" }

func (*Failure) Retry() bool { return false } // want "testonly.\(\*Failure\).Retry is reached only by tests"

// Orphan's only mention outside its declaration is its method's receiver.
type Orphan struct{} // want "testonly.Orphan is reached only by tests"

func (Orphan) Close() {} // want "testonly.Orphan.Close is reached only by tests"

var (
	_ Named = Leaf{}
	_ error = &Failure{}
	_       = KindA
)
