module mad/benchmark

go 1.24

require mad v0.0.0

replace mad => ../
