// Command harness is outside the product, yet it counts as a user.
package main

import (
	"fmt"

	"testdata/used"
)

func main() {
	c, err := used.Parse("21.5")
	if err != nil {
		panic(err)
	}
	fmt.Println(used.Max(c, used.Default.Read()), used.Freezing)
	var x any = used.Default
	if cl, ok := x.(interface{ Close() error }); ok {
		_ = cl.Close()
	}
}
