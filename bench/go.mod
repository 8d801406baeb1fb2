// The benchmark is its own module so that it builds only from a checkout
// that also holds the program: every import resolves into the parent
// directory, and nothing under bench/ is part of the program's build.
module computecovid19/bench

go 1.23

require computecovid19 v0.0.0

replace computecovid19 => ../
