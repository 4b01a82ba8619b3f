module github.com/hetgc/hetgc/bench

go 1.21

require github.com/hetgc/hetgc v0.0.0

replace github.com/hetgc/hetgc => ../
