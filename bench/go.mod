module sdsm/bench

go 1.24

require sdsm v0.0.0

replace sdsm => ../
