module pitract/bench

go 1.24

require pitract v0.0.0

replace pitract => ../
