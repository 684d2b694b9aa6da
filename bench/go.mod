module ftcms/bench

go 1.22

require ftcms v0.0.0

replace ftcms => ../
