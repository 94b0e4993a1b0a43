module pdp/bench

go 1.22

require pdp v0.0.0

replace pdp => ../
