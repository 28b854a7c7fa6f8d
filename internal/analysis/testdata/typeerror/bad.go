package bad

// Count returns a string where it declares an int: the package does not
// type-check.
func Count() int { return "three" }
