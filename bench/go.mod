module uvm/bench

go 1.24

require uvm v0.0.0

replace uvm => ../
