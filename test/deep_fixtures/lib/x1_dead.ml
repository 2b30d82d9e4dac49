let used = 1
let dead = 2
let chained x = x + 1
let via_let_module = 3
