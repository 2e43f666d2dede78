module flashwear/bench

go 1.22

require flashwear v0.0.0

replace flashwear => ../
