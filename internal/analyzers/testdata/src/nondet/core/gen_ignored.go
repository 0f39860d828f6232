//go:build ignore

// A generator excluded by its build constraint: the loader must skip
// it as the go tool does, or its package clause breaks the type check
// of core and its wall-clock call surfaces as an unexpected finding.
package main

import (
	"fmt"
	"time"
)

func main() { fmt.Println(time.Now()) }
