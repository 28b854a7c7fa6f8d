package main

import (
	"fmt"

	"phishare/internal/lib"
)

func main() {
	fmt.Println(lib.Live(), lib.Celsius(21.5), lib.NewSquare(2).Area(), lib.Point{X: 1}.X, lib.Used, lib.Box[int]{}.Get())
}
