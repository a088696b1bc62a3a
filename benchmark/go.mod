module argus/benchmark

go 1.24

require argus v0.0.0

replace argus => ../
