module h2o/bench

go 1.21

require h2o v0.0.0

replace h2o => ../
