module memorydb/benchmark

go 1.22

require memorydb v0.0.0

replace memorydb => ../
