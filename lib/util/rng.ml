type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Variant 13 of the MurmurHash3 64-bit finalizer, as used by SplitMix64. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let state t = t.state
let of_state s = { state = s }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let child_seed = int64 t in
  { state = child_seed }

(* FNV-1a over bytes.  The state is kept in a native int, i.e. the 64-bit
   FNV-1a state modulo 2^63: the low bits of a product depend only on the
   low bits of its operands, so every bit the fold to a non-negative int
   keeps is exactly FNV-1a-64's — and nothing is boxed. *)
let fnv_offset = Int64.to_int 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3

let fnv_feed h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h

let fnv_finish h = h land max_int
let hash_string s = fnv_finish (fnv_feed fnv_offset s)

let of_label t label =
  let mixed =
    mix64 (Int64.logxor t.state (Int64.of_int (hash_string label)))
  in
  { state = mixed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: bounds are tiny vs 2^62, modulo bias
     is below 2^-50 and irrelevant for Monte-Carlo search.  The masking
     keeps the value within OCaml's non-negative int range (63-bit ints:
     Int64.to_int alone could land on the native sign bit). *)
  let v = Int64.to_int (int64 t) land max_int in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (int64 t) 1L = 1L

let gauss t ~mu ~sigma =
  (* Box–Muller; draw until u1 is nonzero to keep log finite. *)
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then
    invalid_arg "Rng.sample_without_replacement: need 0 <= k <= n";
  let idx = Array.init n (fun i -> i) in
  shuffle t idx;
  Array.to_list (Array.sub idx 0 k)
