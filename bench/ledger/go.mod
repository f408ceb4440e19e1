// The ledger is its own module so the benchmark builds from its own
// directory; the import path keeps it inside pado's internal/ tree.
module pado/bench/ledger

go 1.22

require pado v0.0.0

replace pado => ../..
