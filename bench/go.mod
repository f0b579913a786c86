module pos/bench

go 1.22

require pos v0.0.0

replace pos => ../
