module spatialsim/bench

go 1.22

require spatialsim v0.0.0

replace spatialsim => ../
