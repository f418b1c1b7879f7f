// Command caller stands for a nested module such as bench/: the module's
// one production caller.
package main

import "example.com/unusedmod/shape"

func main() { println(shape.Shape(shape.Square{Side: 2}).Area()) }
