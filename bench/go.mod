module tenplex/bench

go 1.24

require tenplex v0.0.0

replace tenplex => ../
