module Rng = Ft_util.Rng
module Flag = Ft_flags.Flag
module Cv = Ft_flags.Cv

let amplitude = 0.002

let flag_factor ~platform ~program ~region (flag : Flag.id) value =
  let key =
    Printf.sprintf "quirk:%s:%s:%s:%s=%d"
      (Ft_prog.Platform.short_name platform)
      program region (Flag.name flag) value
  in
  let rng = Rng.create (Rng.hash_string key) in
  1.0 +. ((Rng.float rng 2.0 -. 1.0) *. amplitude)

(* The same ~1000 pooled CVs are priced against the same regions hundreds
   of thousands of times during a search, so two layers are memoized:

   - Per (platform, program, region): the multiplier of {e every}
     (flag, value) pair — 33 flags x arity <= 6 — computed once.  Pricing
     a CV the region has never seen is then 33 array reads and multiplies
     instead of 33 seed-string formats and hashes.
   - Per (region, CV): the finished product, in an int-keyed table on
     [Cv.hash].  [Cv.hash] is stable and collisions are harmless here (a
     collision would only alias one ±0.2 % texture value).  Keeping the
     CVs themselves to rule collisions out would retain every priced CV:
     about 10 MB more peak RSS over a suite of tunes in one process.

   Lookups are indexed, not string-built: [Exec.evaluate] resolves the
   (platform, program) table once per call, then finds each region by name.

   The tables are domain-local: [Exec.evaluate] runs inside worker domains,
   and a shared [Hashtbl] mutated concurrently would race.  A long-lived
   domain (a daemon serving many searches) would otherwise keep a product
   for every CV it ever priced, so each region's memo is cleared once it
   reaches [memo_cap] entries — four times the paper's default pool of
   1000 CVs.

   The product folds over [Flag.all] in canonical order, so every factor
   is bit-identical to the unmemoized computation. *)
module Stbl = Hashtbl.Make (String)
module Itbl = Hashtbl.Make (Int)

let memo_cap = 4 * 1000

type region = {
  factors : float array array; (* per flag, per value *)
  products : float Itbl.t; (* keyed on [Cv.hash] *)
}

type table = {
  platform : Ft_prog.Platform.t;
  program : string;
  regions : region Stbl.t;
}

let dls : table Stbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Stbl.create 16)

let table ~platform ~program =
  let tables = Domain.DLS.get dls in
  let key = Ft_prog.Platform.short_name platform ^ ":" ^ program in
  match Stbl.find tables key with
  | t -> t
  | exception Not_found ->
      let t = { platform; program; regions = Stbl.create 64 } in
      Stbl.replace tables key t;
      t

let region t name =
  match Stbl.find t.regions name with
  | r -> r
  | exception Not_found ->
      let factors =
        Array.map
          (fun flag ->
            Array.init (Flag.arity flag) (fun value ->
                flag_factor ~platform:t.platform ~program:t.program
                  ~region:name flag value))
          Flag.all
      in
      let r = { factors; products = Itbl.create 64 } in
      Stbl.replace t.regions name r;
      r

let product r cv =
  let f = ref 1.0 in
  for i = 0 to Array.length Flag.all - 1 do
    f := !f *. r.factors.(i).(Cv.get cv Flag.all.(i))
  done;
  !f

let lookup t ~region:name cv =
  let r = region t name in
  let h = Cv.hash cv in
  match Itbl.find r.products h with
  | f -> f
  | exception Not_found ->
      let f = product r cv in
      if Itbl.length r.products >= memo_cap then Itbl.reset r.products;
      Itbl.replace r.products h f;
      f

let factor ~platform ~program ~region cv =
  lookup (table ~platform ~program) ~region cv

let memo_entries ~platform ~program ~region:name =
  Itbl.length (region (table ~platform ~program) name).products
