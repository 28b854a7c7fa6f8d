package main

import (
	"fmt"

	"phishare/internal/lib"
)

func main() { fmt.Println(lib.Demo()) }
