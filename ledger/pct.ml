let min_beyond = 10

let rank ~n q = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let beyond ~n q = n - 1 - rank ~n q

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 || beyond ~n q < min_beyond then None else Some sorted.(rank ~n q)

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.median: empty sample";
  let s = Array.copy a in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
