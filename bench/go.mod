module newswire/bench

go 1.22

require newswire v0.0.0

replace newswire => ../
