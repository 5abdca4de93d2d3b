module keysearch/bench

go 1.23

require keysearch v0.0.0

replace keysearch => ../
