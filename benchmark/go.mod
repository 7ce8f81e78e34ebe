module disqo/benchmark

go 1.22

require disqo v0.0.0

replace disqo => ../
