module pi2/bench

go 1.22

require pi2 v0.0.0

replace pi2 => ../
