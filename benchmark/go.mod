module flexnet/benchmark

go 1.22

require flexnet v0.0.0

replace flexnet => ../
