module logicblox/benchmark

go 1.22

require logicblox v0.0.0

replace logicblox => ../
