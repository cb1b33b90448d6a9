(* Tests for ft_util: the PRNG, statistics, and table rendering. *)

module Rng = Ft_util.Rng
module Stats = Ft_util.Stats
module Table = Ft_util.Table

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* --- Rng -------------------------------------------------------------- *)

let test_determinism () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 2)

let test_copy_independent () =
  let a = Rng.create 3 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a)
    (Rng.int64 b)

let test_split_independent () =
  let a = Rng.create 4 in
  let child = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.int a 1000) in
  let ys = List.init 32 (fun _ -> Rng.int child 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_label_stability () =
  let a = Rng.create 5 and b = Rng.create 5 in
  let x = Rng.int64 (Rng.of_label a "alpha") in
  let y = Rng.int64 (Rng.of_label b "alpha") in
  let z = Rng.int64 (Rng.of_label b "beta") in
  Alcotest.(check int64) "same label same stream" x y;
  Alcotest.(check bool) "different labels differ" true (x <> z)

let test_label_does_not_advance () =
  let a = Rng.create 6 and b = Rng.create 6 in
  ignore (Rng.of_label a "whatever");
  Alcotest.(check int64) "of_label leaves parent intact" (Rng.int64 a)
    (Rng.int64 b)

let test_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in [0,13)" true (v >= 0 && v < 13)
  done;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_covers_domain () =
  let rng = Rng.create 8 in
  let seen = Array.make 7 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 7) <- true
  done;
  Alcotest.(check bool) "all residues reached" true
    (Array.for_all (fun x -> x) seen)

let test_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_gauss_moments () =
  let rng = Rng.create 10 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Rng.gauss rng ~mu:3.0 ~sigma:2.0) in
  check_close 0.1 "mean" 3.0 (Stats.mean xs);
  check_close 0.1 "std" 2.0 (Stats.stddev xs)

let test_choose () =
  let rng = Rng.create 11 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.choose rng a) a)
  done;
  Alcotest.check_raises "empty array"
    (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng [||]))

let test_shuffle_permutation () =
  let rng = Rng.create 12 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation"
    (Array.init 20 (fun i -> i))
    sorted

let test_sample_without_replacement () =
  let rng = Rng.create 13 in
  let s = Rng.sample_without_replacement rng 5 10 in
  Alcotest.(check int) "5 draws" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter
    (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 10))
    s;
  Alcotest.check_raises "k > n rejected"
    (Invalid_argument "Rng.sample_without_replacement: need 0 <= k <= n")
    (fun () -> ignore (Rng.sample_without_replacement rng 11 10))

let test_hash_string_stable () =
  Alcotest.(check int) "deterministic" (Rng.hash_string "funcytuner")
    (Rng.hash_string "funcytuner");
  Alcotest.(check bool) "sensitive" true
    (Rng.hash_string "a" <> Rng.hash_string "b");
  Alcotest.(check bool) "non-negative" true (Rng.hash_string "x" >= 0)

(* Published FNV-1a-64 test vectors, after the fold to a non-negative int
   (the low 62 bits). *)
let test_hash_string_fnv_vectors () =
  let folded v = Int64.to_int v land max_int in
  List.iter
    (fun (s, v) ->
      Alcotest.(check int) (Printf.sprintf "%S" s) (folded v)
        (Rng.hash_string s))
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ]

(* FNV-1a-64 as first written, over boxed [Int64]s. *)
let reference_fnv s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int !h land max_int

let prop_fnv_streams =
  QCheck.Test.make ~count:500 ~name:"fnv_feed a then b = hash_string (a ^ b)"
    QCheck.(pair string string)
    (fun (a, b) ->
      let streamed = Rng.(fnv_finish (fnv_feed (fnv_feed fnv_offset a) b)) in
      streamed = Rng.hash_string (a ^ b)
      && streamed = reference_fnv (a ^ b))

(* --- Stats ------------------------------------------------------------ *)

let test_mean () = check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check_float "singleton" 5.0 (Stats.geomean [ 5.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_geomean_large () =
  (* 1000 values of 1e30 would overflow a naive product. *)
  let xs = List.init 1000 (fun _ -> 1e30) in
  check_close 1e20 "log-space stability" 1e30 (Stats.geomean xs)

let test_stddev () =
  check_float "constant" 0.0 (Stats.stddev [ 4.0; 4.0; 4.0 ]);
  check_float "singleton" 0.0 (Stats.stddev [ 7.0 ]);
  check_close 1e-9 "sample stddev" (sqrt 2.5)
    (Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_median () =
  check_float "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "infinities welcome" 1.0
    (Stats.median [ Float.neg_infinity; 1.0; Float.infinity ])

let test_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  check_float "p0" 10.0 (Stats.percentile 0.0 xs);
  check_float "p100" 40.0 (Stats.percentile 100.0 xs);
  check_float "p50 interpolates" 25.0 (Stats.percentile 50.0 xs)

let test_min_max_by () =
  let xs = [ ("a", 3.0); ("b", 1.0); ("c", 2.0) ] in
  Alcotest.(check string) "min" "b" (fst (Stats.min_by snd xs));
  Alcotest.(check string) "max" "a" (fst (Stats.max_by snd xs))

let test_argmin () =
  Alcotest.(check int) "argmin" 2 (Stats.argmin [| 5.0; 3.0; 1.0; 4.0 |]);
  Alcotest.(check int) "first on ties" 0 (Stats.argmin [| 1.0; 1.0 |])

let test_top_k () =
  let costs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.(check (list int)) "ascending top-3" [ 1; 3; 4 ]
    (Stats.top_k_indices 3 costs);
  Alcotest.(check (list int)) "k clamps" [ 1; 3; 4; 2; 0 ]
    (Stats.top_k_indices 99 costs);
  Alcotest.(check (list int)) "k=0" [] (Stats.top_k_indices 0 costs)

let test_clamp () =
  check_float "lo" 1.0 (Stats.clamp ~lo:1.0 ~hi:2.0 0.0);
  check_float "hi" 2.0 (Stats.clamp ~lo:1.0 ~hi:2.0 3.0);
  check_float "inside" 1.5 (Stats.clamp ~lo:1.0 ~hi:2.0 1.5)

let test_speedup () = check_float "ratio" 2.0 (Stats.speedup ~baseline:10.0 5.0)

(* --- Table ------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~title:"T" [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1.5" ];
  Table.add_row t [ "b" ];
  let s = Table.render t in
  Alcotest.(check bool) "title present" true (String.length s > 0);
  Alcotest.(check bool) "contains alpha" true
    (Test_helpers.contains s "alpha")

let test_table_too_wide () =
  let t = Table.create ~title:"T" [ "one" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "a"; "b" ])

let test_fmt () =
  Alcotest.(check string) "fmt_f" "1.234" (Table.fmt_f 1.2344);
  Alcotest.(check string) "fmt_pct positive" "+9.3%" (Table.fmt_pct 1.093);
  Alcotest.(check string) "fmt_pct negative" "-5.0%" (Table.fmt_pct 0.95)

let test_bar () =
  Alcotest.(check string) "zero" "" (Table.bar ~width:10 ~scale:1.0 0.0);
  Alcotest.(check string) "full" "##########"
    (Table.bar ~width:10 ~scale:1.0 2.0);
  Alcotest.(check string) "half" "#####" (Table.bar ~width:10 ~scale:1.0 0.5)

(* --- monotonic clock --------------------------------------------------- *)

let test_clock_now_advances () =
  (* Successive reads never decrease, and the monotonic epoch is not the
     wall epoch (CLOCK_MONOTONIC counts from boot, not 1970). *)
  let a = Ft_util.Clock.now () in
  let b = Ft_util.Clock.now () in
  Alcotest.(check bool) "now never decreases" true (b >= a);
  Alcotest.(check bool) "wall is epoch-scale" true
    (Ft_util.Clock.wall () > 1.0e9)

(* --- qcheck properties ------------------------------------------------ *)

let prop_monotonize_never_goes_backward =
  (* Fold an arbitrary sequence of raw clock readings — including
     backward steps, as a stepped/virtualized clock can produce —
     through the ratchet: elapsed time between any two successive
     ratcheted values must never be negative, and a genuinely advancing
     reading must pass through unchanged. *)
  QCheck.Test.make ~count:300 ~name:"monotonize: elapsed never negative"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun readings ->
      let last = ref neg_infinity in
      List.for_all
        (fun raw ->
          let t = Ft_util.Clock.monotonize ~last:!last raw in
          let ok =
            t >= !last && (raw <= !last || t = raw) && (raw > !last || t = !last)
          in
          last := t;
          ok)
        readings)

let prop_top_k_matches_sort =
  QCheck.Test.make ~count:200 ~name:"top_k agrees with full sort"
    QCheck.(pair (array_of_size Gen.(int_range 1 40) (float_range 0.0 100.0)) small_nat)
    (fun (costs, k) ->
      let k = k mod (Array.length costs + 2) in
      let indices = Stats.top_k_indices k costs in
      let sorted = Array.to_list costs |> List.sort compare in
      let expected =
        List.filteri (fun i _ -> i < k) sorted
      in
      List.map (fun i -> costs.(i)) indices = expected)

let prop_geomean_between_min_max =
  QCheck.Test.make ~count:200 ~name:"geomean between min and max"
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.1 10.0))
    (fun xs ->
      let g = Stats.geomean xs in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

let prop_rng_float_in_range =
  QCheck.Test.make ~count:200 ~name:"Rng.float stays in range"
    QCheck.(pair small_int (float_range 0.1 100.0))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.float rng bound in
      v >= 0.0 && v < bound)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~count:100 ~name:"shuffle preserves elements"
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Rng.shuffle (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let prop_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentile is monotone in p"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 30) (float_range 0.0 100.0))
        (float_range 0.0 100.0) (float_range 0.0 100.0))
    (fun (xs, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile lo xs <= Stats.percentile hi xs +. 1e-9)

let prop_robust_representative_within_mads =
  QCheck.Test.make ~count:200
    ~name:"robust_representative within 3 MADs of median"
    QCheck.(array_of_size Gen.(int_range 1 30) (float_range 0.1 100.0))
    (fun xs ->
      let i = Stats.robust_representative xs in
      let l = Array.to_list xs in
      let med = Stats.median l in
      let mad = Stats.median (List.map (fun x -> Float.abs (x -. med)) l) in
      i >= 0
      && i < Array.length xs
      && Float.abs (xs.(i) -. med) <= (3.0 *. mad) +. 1e-9)

let prop_geomean_le_mean =
  QCheck.Test.make ~count:200 ~name:"geomean <= mean (AM-GM)"
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.1 10.0))
    (fun xs -> Stats.geomean xs <= Stats.mean xs +. 1e-9)

let prop_label_streams_sibling_independent =
  (* The stream behind a label must not depend on how much was already
     drawn from any sibling label's stream — the property the engine's
     per-job noise streams rely on for schedule independence. *)
  QCheck.Test.make ~count:200 ~name:"of_label independent of sibling draws"
    QCheck.(triple small_int (int_bound 16) (int_bound 16))
    (fun (seed, before, after) ->
      let r1 = Rng.create seed in
      let sibling = Rng.of_label r1 "sibling" in
      for _ = 1 to before do
        ignore (Rng.int64 sibling)
      done;
      let a1 = Rng.of_label r1 "target" in
      let x = Rng.int64 a1 in
      let r2 = Rng.create seed in
      let a2 = Rng.of_label r2 "target" in
      let y = Rng.int64 a2 in
      for _ = 1 to after do
        ignore (Rng.int64 (Rng.of_label r2 "sibling"))
      done;
      x = y)

let prop_rng_state_roundtrip =
  (* The exact persistence path a checkpoint would use: state -> decimal
     string -> of_state must resume the identical stream. *)
  QCheck.Test.make ~count:200 ~name:"Rng state survives save/restore"
    QCheck.(pair small_int (int_bound 50))
    (fun (seed, advance) ->
      let r = Rng.create seed in
      for _ = 1 to advance do
        ignore (Rng.int64 r)
      done;
      let persisted = Int64.to_string (Rng.state r) in
      let r' = Rng.of_state (Int64.of_string persisted) in
      let xs = List.init 20 (fun _ -> Rng.int64 r) in
      let ys = List.init 20 (fun _ -> Rng.int64 r') in
      xs = ys)

(* --- NaN rejection ----------------------------------------------------- *)

(* A NaN loses every [<] comparison and sorts below -infinity under
   [Float.compare], so one reaching a Stats aggregate would silently
   poison the result — or, worse, WIN an argmin.  The module's contract
   is to reject NaN loudly; these properties splice one into a
   well-formed input at a random position and require the raise.
   (Infinities stay legitimate: faulted evaluations score infinity.) *)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let nan_list_arb =
  QCheck.(
    map
      (fun (xs, at) ->
        let at = at mod (List.length xs + 1) in
        List.filteri (fun i _ -> i < at) xs
        @ [ Float.nan ]
        @ List.filteri (fun i _ -> i >= at) xs)
      (pair
         (list_of_size Gen.(int_range 0 15) (float_range (-50.0) 50.0))
         small_nat))

let prop_aggregates_reject_nan =
  QCheck.Test.make ~count:200 ~name:"mean/median/percentile reject NaN"
    nan_list_arb (fun xs ->
      raises_invalid (fun () -> Stats.mean xs)
      && raises_invalid (fun () -> Stats.median xs)
      && raises_invalid (fun () -> Stats.percentile 50.0 xs)
      && raises_invalid (fun () -> Stats.stddev xs))

let prop_selectors_reject_nan =
  QCheck.Test.make ~count:200 ~name:"argmin/min_by/top_k reject NaN"
    nan_list_arb (fun xs ->
      let a = Array.of_list xs in
      raises_invalid (fun () -> Stats.argmin a)
      && raises_invalid (fun () -> Stats.min_by Fun.id xs)
      && raises_invalid (fun () -> Stats.max_by Fun.id xs)
      && raises_invalid (fun () -> Stats.top_k_indices 3 a))

let prop_median_permutation_invariant =
  (* [sorted] uses the total order [Float.compare]; on NaN-free input the
     aggregate must not depend on presentation order. *)
  QCheck.Test.make ~count:200 ~name:"median invariant under permutation"
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range (-100.0) 100.0))
    (fun xs ->
      let m = Stats.median xs in
      Stats.median (List.rev xs) = m
      && Stats.median (List.sort Float.compare xs) = m)

let suite =
  ( "util",
    [
      Alcotest.test_case "rng determinism" `Quick test_determinism;
      Alcotest.test_case "rng seed sensitivity" `Quick test_seed_sensitivity;
      Alcotest.test_case "rng copy" `Quick test_copy_independent;
      Alcotest.test_case "rng split" `Quick test_split_independent;
      Alcotest.test_case "rng label stability" `Quick test_label_stability;
      Alcotest.test_case "rng label no-advance" `Quick
        test_label_does_not_advance;
      Alcotest.test_case "rng int bounds" `Quick test_int_bounds;
      Alcotest.test_case "rng int coverage" `Quick test_int_covers_domain;
      Alcotest.test_case "rng float bounds" `Quick test_float_bounds;
      Alcotest.test_case "rng gauss moments" `Quick test_gauss_moments;
      Alcotest.test_case "rng choose" `Quick test_choose;
      Alcotest.test_case "rng shuffle" `Quick test_shuffle_permutation;
      Alcotest.test_case "rng sampling w/o replacement" `Quick
        test_sample_without_replacement;
      Alcotest.test_case "hash_string" `Quick test_hash_string_stable;
      Alcotest.test_case "mean" `Quick test_mean;
      Alcotest.test_case "geomean" `Quick test_geomean;
      Alcotest.test_case "geomean large values" `Quick test_geomean_large;
      Alcotest.test_case "stddev" `Quick test_stddev;
      Alcotest.test_case "median" `Quick test_median;
      Alcotest.test_case "percentile" `Quick test_percentile;
      Alcotest.test_case "min_by/max_by" `Quick test_min_max_by;
      Alcotest.test_case "argmin" `Quick test_argmin;
      Alcotest.test_case "top_k" `Quick test_top_k;
      Alcotest.test_case "clamp" `Quick test_clamp;
      Alcotest.test_case "speedup" `Quick test_speedup;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table width check" `Quick test_table_too_wide;
      Alcotest.test_case "formatting" `Quick test_fmt;
      Alcotest.test_case "ascii bars" `Quick test_bar;
      Alcotest.test_case "monotonic clock advances" `Quick
        test_clock_now_advances;
      QCheck_alcotest.to_alcotest prop_top_k_matches_sort;
      QCheck_alcotest.to_alcotest prop_geomean_between_min_max;
      QCheck_alcotest.to_alcotest prop_rng_float_in_range;
      QCheck_alcotest.to_alcotest prop_shuffle_preserves_multiset;
      QCheck_alcotest.to_alcotest prop_percentile_monotone;
      QCheck_alcotest.to_alcotest prop_robust_representative_within_mads;
      QCheck_alcotest.to_alcotest prop_geomean_le_mean;
      QCheck_alcotest.to_alcotest prop_label_streams_sibling_independent;
      QCheck_alcotest.to_alcotest prop_rng_state_roundtrip;
      QCheck_alcotest.to_alcotest prop_aggregates_reject_nan;
      QCheck_alcotest.to_alcotest prop_selectors_reject_nan;
      QCheck_alcotest.to_alcotest prop_median_permutation_invariant;
      QCheck_alcotest.to_alcotest prop_monotonize_never_goes_backward;
      Alcotest.test_case "hash_string FNV-1a vectors" `Quick
        test_hash_string_fnv_vectors;
      QCheck_alcotest.to_alcotest prop_fnv_streams;
    ] )
