// Package used keeps rule 2: every export is reached by non-test code,
// here or in the harness beside it, or satisfies an interface.
package used

import (
	"fmt"
	"strconv"
)

// Celsius is a temperature; String satisfies fmt.Stringer.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

// Freezing is read by the harness.
const Freezing Celsius = 0

// Parse reads a temperature.
func Parse(s string) (Celsius, error) {
	f, err := strconv.ParseFloat(s, 64)
	return Celsius(f), err
}

// Max is generic; the harness uses an instance of it.
func Max[T ~float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Sensor is read by the harness.
type Sensor struct{ last Celsius }

// Read returns the last reading.
func (s *Sensor) Read() Celsius { return s.last }

// Close is reached through an assertion to an interface literal.
func (s *Sensor) Close() error { return nil }

// Default is the harness's sensor.
var Default = &Sensor{}
