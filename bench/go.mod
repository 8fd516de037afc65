module f90y/bench

go 1.22

require f90y v0.0.0

replace f90y => ../
