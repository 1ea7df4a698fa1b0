module dpnfs/perf

go 1.22

require dpnfs v0.0.0

replace dpnfs => ../
