let used x = x + 1
let unused x = x - 1
let for_tests x = 2 * x
let oracle x = x + x
