module slicc/benchmark

go 1.24

require slicc v0.0.0

replace slicc => ../
