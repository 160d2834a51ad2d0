module sjos/benchmark

go 1.24

require sjos v0.0.0

replace sjos => ../
