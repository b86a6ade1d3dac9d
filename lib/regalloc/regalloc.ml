(** Graph-coloring register allocation, after Chaitin and Briggs et al. [1]
    (the allocator the paper uses: "Our compiler uses a graph-coloring
    allocator.  These allocators are known to over-spill in tight
    situations").

    Phases: liveness → interference graph → conservative (Briggs)
    coalescing → simplify with optimistic push → select → either done or
    spill-and-retry.  Spill code is emitted as tagged scalar memory
    operations ([Tag.Spill]), so spills show up in the dynamic load/store
    counts exactly as the paper's experiments require (the "water" effect,
    where promotion-induced pressure makes the allocated code slower).

    There are no calling-convention constraints: the execution model gives
    every activation a private register file, so values never live across a
    call in a shared register.  Promoted values therefore "compete for
    registers on an equal footing with other values". *)

open Rp_ir
module IS = Rp_support.Smaps.Int_set

type stats = {
  mutable spilled_regs : int;
  mutable remat_regs : int;
      (** "spilled" constants rematerialized instead of stored *)
  mutable coalesced : int;
  mutable removed_copies : int;
  mutable rounds : int;
}

let zero_stats () =
  { spilled_regs = 0; remat_regs = 0; coalesced = 0; removed_copies = 0;
    rounds = 0 }

(* ------------------------------------------------------------------ *)
(* Interference graph                                                  *)
(* ------------------------------------------------------------------ *)

type graph = {
  adj : (Instr.reg, IS.t) Hashtbl.t;
  mutable nodes : IS.t;
}

let g_create () = { adj = Hashtbl.create 64; nodes = IS.empty }

let g_neighbors g n = Option.value ~default:IS.empty (Hashtbl.find_opt g.adj n)

let g_add_node g n = g.nodes <- IS.add n g.nodes

let g_add_edge g a b =
  if a <> b then begin
    g_add_node g a;
    g_add_node g b;
    Hashtbl.replace g.adj a (IS.add b (g_neighbors g a));
    Hashtbl.replace g.adj b (IS.add a (g_neighbors g b))
  end

let g_interferes g a b = IS.mem b (g_neighbors g a)

let g_degree g n = IS.cardinal (g_neighbors g n)

(** Build the interference graph plus spill-cost estimates.  A definition
    interferes with everything live after it; for a copy, the source is
    excluded (the classic move exception enabling coalescing). *)
let build (f : Func.t) (forest : Rp_cfg.Loops.forest) =
  let live = Rp_opt.Liveness.compute f in
  let g = g_create () in
  let cost : (Instr.reg, float) Hashtbl.t = Hashtbl.create 64 in
  let moves = ref [] in
  let bump_cost r w =
    Hashtbl.replace cost r (w +. Option.value ~default:0. (Hashtbl.find_opt cost r))
  in
  (* every register that appears is a node *)
  List.iter (fun p -> g_add_node g p) f.Func.params;
  Func.iter_blocks
    (fun (b : Block.t) ->
      let depth =
        match Hashtbl.find_opt forest.Rp_cfg.Loops.innermost b.Block.label with
        | Some l -> l.Rp_cfg.Loops.depth
        | None -> 0
      in
      let w = Float.pow 10. (float_of_int (min depth 6)) in
      let after = Rp_opt.Liveness.live_after_each f live b in
      let instrs = Array.of_list b.Block.instrs in
      Array.iteri
        (fun k i ->
          List.iter (fun r -> g_add_node g r; bump_cost r w) (Instr.uses i);
          List.iter (fun d -> g_add_node g d; bump_cost d w) (Instr.defs i);
          let live_after = after.(k) in
          match i with
          | Instr.Copy (d, s) ->
            moves := (d, s) :: !moves;
            IS.iter (fun l -> if l <> s then g_add_edge g d l) live_after
          | _ ->
            List.iter
              (fun d -> IS.iter (fun l -> g_add_edge g d l) live_after)
              (Instr.defs i))
        instrs;
      List.iter (fun r -> bump_cost r w) (Instr.term_uses b.Block.term))
    f;
  (* parameters are all live simultaneously at entry *)
  let rec pairs = function
    | [] -> ()
    | p :: rest ->
      List.iter (fun q -> g_add_edge g p q) rest;
      pairs rest
  in
  pairs f.Func.params;
  let entry_live = Rp_opt.Liveness.live_in live f.Func.entry in
  List.iter
    (fun p -> IS.iter (fun l -> g_add_edge g p l) entry_live)
    f.Func.params;
  (g, cost, !moves)

(* ------------------------------------------------------------------ *)
(* Coalescing                                                          *)
(* ------------------------------------------------------------------ *)

(** Briggs-conservative coalescing on the interference graph.  Returns the
    alias map (register -> representative). *)
let coalesce (g : graph) (moves : (Instr.reg * Instr.reg) list) ~k stats =
  let uf_size = 1 + IS.fold max g.nodes 0 in
  let uf = Rp_support.Union_find.create (max uf_size 1) in
  let resolve r = Rp_support.Union_find.find uf r in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d, s) ->
        let d = resolve d and s = resolve s in
        if d <> s && (not (g_interferes g d s)) && IS.mem d g.nodes
           && IS.mem s g.nodes
        then begin
          let combined = IS.union (g_neighbors g d) (g_neighbors g s) in
          let significant =
            IS.fold
              (fun n acc -> if g_degree g n >= k then acc + 1 else acc)
              combined 0
          in
          if significant < k then begin
            (* merge s into d *)
            let root = Rp_support.Union_find.union uf d s in
            let other = if root = d then s else d in
            IS.iter
              (fun n ->
                Hashtbl.replace g.adj n (IS.remove other (g_neighbors g n));
                g_add_edge g root n)
              (g_neighbors g other);
            Hashtbl.remove g.adj other;
            g.nodes <- IS.remove other g.nodes;
            stats.coalesced <- stats.coalesced + 1;
            changed := true
          end
        end)
      moves
  done;
  resolve

(* ------------------------------------------------------------------ *)
(* Coloring                                                            *)
(* ------------------------------------------------------------------ *)

(** Simplify + optimistic select.  Returns [Ok coloring] or [Error spills]
    with the registers chosen for spilling. *)
let color (g : graph) (cost : (Instr.reg, float) Hashtbl.t) ~k :
    ((Instr.reg, int) Hashtbl.t, IS.t) result =
  (* work on a mutable copy of the adjacency degrees *)
  let adj = Hashtbl.copy g.adj in
  let neighbors n = Option.value ~default:IS.empty (Hashtbl.find_opt adj n) in
  let present = ref g.nodes in
  let stack = ref [] in
  let remove n =
    IS.iter
      (fun m -> Hashtbl.replace adj m (IS.remove n (neighbors m)))
      (neighbors n);
    present := IS.remove n !present;
    stack := n :: !stack
  in
  while not (IS.is_empty !present) do
    (* pick a trivially colorable node, else the cheapest spill candidate *)
    let trivial =
      IS.fold
        (fun n acc ->
          match acc with
          | Some _ -> acc
          | None -> if IS.cardinal (neighbors n) < k then Some n else None)
        !present None
    in
    match trivial with
    | Some n -> remove n
    | None ->
      (* spill metric: cost / (1 + degree); lowest goes first (optimistic) *)
      let (victim, _) =
        IS.fold
          (fun n (best, bestm) ->
            let c = Option.value ~default:1.0 (Hashtbl.find_opt cost n) in
            let m = c /. float_of_int (1 + IS.cardinal (neighbors n)) in
            if m < bestm then (n, m) else (best, bestm))
          !present
          (IS.min_elt !present, infinity)
      in
      remove victim
  done;
  (* select *)
  let coloring = Hashtbl.create 64 in
  let spills = ref IS.empty in
  List.iter
    (fun n ->
      let taken =
        IS.fold
          (fun m acc ->
            match Hashtbl.find_opt coloring m with
            | Some c -> IS.add c acc
            | None -> acc)
          (g_neighbors g n) IS.empty
      in
      let rec first c = if IS.mem c taken then first (c + 1) else c in
      let c = first 0 in
      if c < k then Hashtbl.replace coloring n c
      else spills := IS.add n !spills)
    !stack;
  if IS.is_empty !spills then Ok coloring else Error !spills

(* ------------------------------------------------------------------ *)
(* Spill code                                                          *)
(* ------------------------------------------------------------------ *)

(** Insert spill code for each register in [victims]: a fresh spill tag per
    register, a store after every definition, a load into a fresh temporary
    before every use.  Every temporary created here is recorded in [temps]:
    spill temporaries must never be chosen as spill victims themselves, or
    the allocator would loop re-spilling its own fixes. *)
let insert_spill_code (p : Program.t) (f : Func.t) (victims : IS.t)
    (temps : IS.t ref) stats =
  let fresh_temp () =
    let r = Func.fresh_reg f in
    temps := IS.add r !temps;
    r
  in
  (* rematerialization: a victim whose single definition materializes a
     constant or an address is recomputed at each use instead of being
     stored to a stack slot — the classic Chaitin-Briggs refinement, and
     essential here so that constants hoisted by LICM do not turn register
     pressure into phantom memory traffic *)
  let def_count : (Instr.reg, int) Hashtbl.t = Hashtbl.create 64 in
  let def_instr : (Instr.reg, Instr.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace def_count r 1) f.Func.params;
  Func.iter_blocks
    (fun (b : Block.t) ->
      List.iter
        (fun i ->
          List.iter
            (fun d ->
              Hashtbl.replace def_count d
                (1 + Option.value ~default:0 (Hashtbl.find_opt def_count d));
              Hashtbl.replace def_instr d i)
            (Instr.defs i))
        b.Block.instrs)
    f;
  let remat : (Instr.reg, Instr.t) Hashtbl.t = Hashtbl.create 8 in
  IS.iter
    (fun r ->
      if Hashtbl.find_opt def_count r = Some 1 then
        match Hashtbl.find_opt def_instr r with
        | Some ((Instr.Loadi _ | Instr.Loada _ | Instr.Loadfp _) as i) ->
          Hashtbl.replace remat r i;
          stats.remat_regs <- stats.remat_regs + 1
        | _ -> ())
    victims;
  let slot : (Instr.reg, Tag.t) Hashtbl.t = Hashtbl.create 8 in
  let slot_of r =
    match Hashtbl.find_opt slot r with
    | Some t -> t
    | None ->
      let t =
        Tag.Table.fresh p.Program.tags
          ~name:(Printf.sprintf "%s.spill.r%d" f.Func.name r)
          ~storage:(Tag.Spill f.Func.name) ~size:1 ~is_scalar:true ()
      in
      Hashtbl.replace slot r t;
      f.Func.local_tags <- f.Func.local_tags @ [ t ];
      stats.spilled_regs <- stats.spilled_regs + 1;
      t
  in
  Func.iter_blocks
    (fun (b : Block.t) ->
      let out = ref [] in
      List.iter
        (fun i ->
          (* loads before uses *)
          let remap = Hashtbl.create 4 in
          List.iter
            (fun u ->
              if IS.mem u victims && not (Hashtbl.mem remap u) then begin
                let tmp = fresh_temp () in
                Hashtbl.replace remap u tmp;
                match Hashtbl.find_opt remat u with
                | Some def ->
                  out := Instr.map_defs (fun _ -> tmp) def :: !out
                | None -> out := Instr.Loads (tmp, slot_of u) :: !out
              end)
            (Instr.uses i);
          let i =
            if Hashtbl.length remap = 0 then i
            else
              Instr.map_uses
                (fun u -> Option.value ~default:u (Hashtbl.find_opt remap u))
                i
          in
          (* defs keep their register but the value is stored immediately;
             use a fresh def register to shorten the live range *)
          let stores = ref [] in
          let keep = ref true in
          let i =
            match Instr.defs i with
            | [ d ] when Hashtbl.mem remat d ->
              (* the rematerialized value is recomputed at each use; its
                 original (pure) definition is now dead and must go, or the
                 register would resurface unchanged every round *)
              keep := false;
              i
            | [ d ] when IS.mem d victims ->
              let tmp = fresh_temp () in
              stores := [ Instr.Stores (slot_of d, tmp) ];
              Instr.map_defs (fun _ -> tmp) i
            | _ -> i
          in
          if !keep then out := List.rev_append (i :: !stores) !out)
        b.Block.instrs;
      b.Block.instrs <- List.rev !out;
      (* spilled registers read by the terminator *)
      let tuses = Instr.term_uses b.Block.term in
      let remap = Hashtbl.create 2 in
      List.iter
        (fun u ->
          if IS.mem u victims && not (Hashtbl.mem remap u) then begin
            let tmp = fresh_temp () in
            Hashtbl.replace remap u tmp;
            let fill =
              match Hashtbl.find_opt remat u with
              | Some def -> Instr.map_defs (fun _ -> tmp) def
              | None -> Instr.Loads (tmp, slot_of u)
            in
            b.Block.instrs <- b.Block.instrs @ [ fill ]
          end)
        tuses;
      if Hashtbl.length remap > 0 then
        b.Block.term <-
          Instr.term_map_uses
            (fun u -> Option.value ~default:u (Hashtbl.find_opt remap u))
            b.Block.term)
    f;
  (* spilled parameters: store the incoming value at function entry *)
  let entry = Func.entry_block f in
  List.iter
    (fun prm ->
      if IS.mem prm victims then
        entry.Block.instrs <- Instr.Stores (slot_of prm, prm) :: entry.Block.instrs)
    f.Func.params

(* ------------------------------------------------------------------ *)
(* Rewrite with colors                                                 *)
(* ------------------------------------------------------------------ *)

let apply_coloring (f : Func.t) resolve (coloring : (Instr.reg, int) Hashtbl.t)
    ~k stats =
  let color_of r =
    let r = resolve r in
    match Hashtbl.find_opt coloring r with
    | Some c -> c
    | None ->
      (* a register that never appears live anywhere (dead def with no
         uses): give it color 0 *)
      0
  in
  Func.iter_blocks
    (fun (b : Block.t) ->
      b.Block.instrs <-
        List.filter_map
          (fun i ->
            let i' = Instr.map_regs color_of i in
            match i' with
            | Instr.Copy (d, s) when d = s ->
              stats.removed_copies <- stats.removed_copies + 1;
              None
            | _ -> Some i')
          b.Block.instrs;
      b.Block.term <- Instr.term_map_uses color_of b.Block.term)
    f;
  f.Func.params <- List.map color_of f.Func.params;
  f.Func.nreg <- k

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let min_registers = 4

(** Allocate [f] onto [k] physical registers. *)
let alloc_func (p : Program.t) ~k (f : Func.t) : stats =
  if k < min_registers then
    invalid_arg
      (Printf.sprintf "Regalloc: need at least %d registers" min_registers);
  let stats = zero_stats () in
  let temps = ref IS.empty in
  let rec round n =
    if n > 64 then failwith "Regalloc: did not converge";
    stats.rounds <- stats.rounds + 1;
    let dom = Rp_cfg.Dominators.compute f in
    let forest = Rp_cfg.Loops.analyze f dom in
    let (g, cost, moves) = build f forest in
    let resolve = coalesce g moves ~k stats in
    (* fold costs through coalescing aliases; spill temporaries must never
       look cheap, or they would be re-spilled forever *)
    let merged_cost = Hashtbl.create 64 in
    Hashtbl.iter
      (fun r c ->
        let c = if IS.mem r !temps then infinity else c in
        let r = resolve r in
        Hashtbl.replace merged_cost r
          (c +. Option.value ~default:0. (Hashtbl.find_opt merged_cost r)))
      cost;
    match color g merged_cost ~k with
    | Ok coloring -> apply_coloring f resolve coloring ~k stats
    | Error spills ->
      (* spill the chosen victims (mapped back to every original register
         whose representative was spilled is unnecessary: victims are graph
         nodes, i.e. representatives; spill code must target the registers
         as they appear in the code, so expand through the alias map) *)
      let expand = Hashtbl.create 8 in
      IS.iter (fun v -> Hashtbl.replace expand v ()) spills;
      let victims = ref IS.empty in
      Func.iter_blocks
        (fun (b : Block.t) ->
          List.iter
            (fun i ->
              List.iter
                (fun r ->
                  if Hashtbl.mem expand (resolve r) then
                    victims := IS.add r !victims)
                (Instr.uses i @ Instr.defs i))
            b.Block.instrs;
          List.iter
            (fun r ->
              if Hashtbl.mem expand (resolve r) then victims := IS.add r !victims)
            (Instr.term_uses b.Block.term))
        f;
      List.iter
        (fun r ->
          if Hashtbl.mem expand (resolve r) then victims := IS.add r !victims)
        f.Func.params;
      insert_spill_code p f !victims temps stats;
      round (n + 1)
  in
  round 1;
  stats

(** Allocate every function in the program. *)
let alloc_program ?(k = 24) (p : Program.t) : stats =
  let total = zero_stats () in
  Program.iter_funcs
    (fun f ->
      let s = alloc_func p ~k f in
      total.spilled_regs <- total.spilled_regs + s.spilled_regs;
      total.coalesced <- total.coalesced + s.coalesced;
      total.removed_copies <- total.removed_copies + s.removed_copies;
      total.rounds <- total.rounds + s.rounds)
    p;
  total
