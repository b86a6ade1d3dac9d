(** The [serve] workload's traffic: a seeded pool of generated programs
    crossed with the six grid configurations, drawn with Zipf(1.1)
    popularity.  With 200 programs (1,200 items), about a quarter of the
    first 1,500 requests are first touches of an item and the rest are
    repeats — users who resubmit a popular few programs among many new
    ones.  The same seed always yields the same request sequence. *)

module Json = Rp_support.Json

let pool_size = 200
let zipf_s = 1.1
let configs = Array.of_list (List.map fst Rp_driver.Config.paper_grid)

type item = { prog : int; config : int }

let source ~seed prog = Rp_fuzz.Gen.program_of_seed ~seed ~trial:prog

type t = {
  rng : Random.State.t;
  cdf : float array;  (** cumulative Zipf weight of popularity ranks *)
  by_rank : item array;  (** a seeded permutation of every item *)
}

let make ~seed =
  let rng = Random.State.make [| seed; 0x7a1f |] in
  let ncfg = Array.length configs in
  let n = pool_size * ncfg in
  let by_rank = Array.init n (fun k -> { prog = k / ncfg; config = k mod ncfg }) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = by_rank.(i) in
    by_rank.(i) <- by_rank.(j);
    by_rank.(j) <- x
  done;
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (float_of_int (k + 1) ** -.zipf_s);
    cdf.(k) <- !acc
  done;
  Array.iteri (fun k w -> cdf.(k) <- w /. !acc) cdf;
  { rng; cdf; by_rank }

(** The next request's item. *)
let next t =
  let u = Random.State.float t.rng 1.0 in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  t.by_rank.(search 0 (Array.length t.cdf - 1))

(** One interp [run] request line, shaped as [rpcc client run] sends it. *)
let request_line ~id ~src ~config =
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("schema", Json.Str Rp_serve.Protocol.schema);
         ("id", Json.Int id);
         ("client", Json.Str "perfbench");
         ("op", Json.Str "run");
         ("src", Json.Str src);
         ("config", Json.Str configs.(config));
       ])
