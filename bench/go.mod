module nuevomatch/bench

go 1.24

require nuevomatch v0.0.0

replace nuevomatch => ../
