(* A percentile is printed only when at least ten samples lie beyond it. *)

let sample n = Array.init n float_of_int

let check name cond = if not cond then failwith ("test_pct: " ^ name)

let () =
  check "empty sample has no median" (Pct.quantile [||] 0.5 = None);
  check "p50 of 19 samples refused" (Pct.quantile (sample 19) 0.5 = None);
  check "p50 of 21 samples supported" (Pct.quantile (sample 21) 0.5 = Some 10.);
  check "p99 of 999 samples refused" (Pct.quantile (sample 999) 0.99 = None);
  check "p99 of 1000 samples supported" (Pct.quantile (sample 1000) 0.99 = Some 989.);
  (* whenever a value is returned, ten samples rank above it *)
  List.iter
    (fun n ->
      List.iter
        (fun q ->
          match Pct.quantile (sample n) q with
          | Some v ->
            let above = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 (sample n) in
            check (Printf.sprintf "n=%d q=%g has %d beyond" n q above) (above >= Pct.min_beyond)
          | None -> check (Printf.sprintf "n=%d q=%g refused" n q) (Pct.beyond ~n q < Pct.min_beyond))
        [ 0.5; 0.9; 0.99; 0.999 ])
    [ 1; 10; 11; 20; 21; 100; 999; 1000; 1001; 12345 ];
  check "median odd" (Pct.median [| 3.; 1.; 2. |] = 2.);
  check "median even" (Pct.median [| 4.; 1.; 3.; 2. |] = 2.5);
  print_endline "test_pct: ok"
