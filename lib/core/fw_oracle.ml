exception Negative_cycle = Agdp.Negative_cycle

let inf = Q.sentinel
let is_inf = Q.is_sentinel

(* Every node ever inserted occupies an index [0 .. n-1] forever; [kill]
   only flips its [live] bit.  Out-edges are adjacency lists over indices.
   [cache] holds the flat row-major n×n distance matrix of the last
   Floyd–Warshall run, invalidated by [insert]. *)
type t = {
  scale : int; (* the lattice denominator D of the cells it is handed *)
  idx_of : (int, int) Hashtbl.t; (* key -> index, live or dead *)
  mutable key_of : int array; (* index -> key *)
  mutable live : bool array;
  mutable adj : (int * Q.t) list array; (* index -> out-edges *)
  mutable n : int;
  mutable cache : Q.t array option;
  mutable relax_count : int;
  mutable live_count : int;
  mutable peak : int;
}

let initial_capacity = 8

let create ~scale () =
  {
    scale;
    idx_of = Hashtbl.create 16;
    key_of = Array.make initial_capacity (-1);
    live = Array.make initial_capacity false;
    adj = Array.make initial_capacity [];
    n = 0;
    cache = None;
    relax_count = 0;
    live_count = 0;
    peak = 0;
  }

let ensure_capacity t =
  let cap = Array.length t.key_of in
  if t.n = cap then begin
    let cap' = 2 * cap in
    let grow a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.key_of <- grow t.key_of (-1);
    t.live <- grow t.live false;
    t.adj <- grow t.adj []
  end

let mem t key =
  match Hashtbl.find_opt t.idx_of key with
  | Some i -> t.live.(i)
  | None -> false

let size t = t.live_count
let relaxations t = t.relax_count
let peak_size t = t.peak

let live_keys t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.live.(i) then acc := t.key_of.(i) :: !acc
  done;
  List.sort compare !acc

let live_idx_exn t key =
  match Hashtbl.find_opt t.idx_of key with
  | Some i when t.live.(i) -> i
  | _ -> invalid_arg (Printf.sprintf "Fw_oracle: node %d is not live" key)

(* Full-graph Floyd–Warshall; every relaxation attempt is counted so the
   cost gap to Agdp's incremental update is measurable in the same unit.
   Raises Negative_cycle (before installing the cache) when a diagonal
   entry goes negative. *)
let recompute t =
  let n = t.n in
  let d = Array.make (max 1 (n * n)) inf in
  for i = 0 to n - 1 do
    d.((i * n) + i) <- Q.zero;
    List.iter
      (fun (j, w) ->
        let c = (i * n) + j in
        let cur = d.(c) in
        (* [compare_exact]: the reference must stay independent of the
           float fast tier it is used to cross-check *)
        if is_inf cur || Q.compare_exact w cur < 0 then d.(c) <- w)
      t.adj.(i)
  done;
  let relaxed = ref 0 in
  (try
     for k = 0 to n - 1 do
       let krow = k * n in
       for i = 0 to n - 1 do
         let dik = Array.unsafe_get d ((i * n) + k) in
         if not (is_inf dik) then begin
           let base = i * n in
           for j = 0 to n - 1 do
             incr relaxed;
             let dkj = Array.unsafe_get d (krow + j) in
             if not (is_inf dkj) then begin
               let cand = Q.add dik dkj in
               let cur = Array.unsafe_get d (base + j) in
               if is_inf cur || Q.compare_exact cand cur < 0 then
                 Array.unsafe_set d (base + j) cand
             end
           done;
           if Q.sign (Array.unsafe_get d (base + i)) < 0 then
             raise Negative_cycle
         end
       done
     done
   with e ->
     t.relax_count <- t.relax_count + !relaxed;
     raise e);
  t.relax_count <- t.relax_count + !relaxed;
  t.cache <- Some d;
  d

let matrix t =
  match t.cache with
  | Some d -> d
  | None -> recompute t

let dist t x y =
  let ix = live_idx_exn t x and iy = live_idx_exn t y in
  let v = (matrix t).((ix * t.n) + iy) in
  if is_inf v then Ext.Inf else Ext.Fin v

let insert t ~key ~in_edges ~out_edges =
  if mem t key then
    invalid_arg (Printf.sprintf "Fw_oracle.insert: duplicate key %d" key);
  List.iter
    (fun (x, _) ->
      if x = key then invalid_arg "Fw_oracle.insert: self-loop edge")
    (in_edges @ out_edges);
  (* the exact weight of each cell, rebuilt in [Q] *)
  let edge (x, w) = (live_idx_exn t x, Q.make_ints w t.scale) in
  let in_edges = List.map edge in_edges
  and out_edges = List.map edge out_edges in
  ensure_capacity t;
  let k = t.n in
  (* Tentatively commit the node, recompute, and roll everything back if
     the enlarged graph has a negative cycle — queries between the two
     steps never happen because the rollback is within this call. *)
  t.n <- k + 1;
  t.key_of.(k) <- key;
  t.live.(k) <- true;
  t.adj.(k) <- out_edges;
  (* a killed key may be re-inserted (it left the live set, so Agdp allows
     it); its dead predecessor keeps its index and stays a relay *)
  let prev_idx = Hashtbl.find_opt t.idx_of key in
  Hashtbl.replace t.idx_of key k;
  List.iter (fun (x, w) -> t.adj.(x) <- (k, w) :: t.adj.(x)) in_edges;
  let saved_cache = t.cache in
  t.cache <- None;
  (try ignore (recompute t)
   with Negative_cycle ->
     List.iter
       (fun (x, _) ->
         t.adj.(x) <- List.filter (fun (j, _) -> j <> k) t.adj.(x))
       in_edges;
     (match prev_idx with
     | Some i -> Hashtbl.replace t.idx_of key i
     | None -> Hashtbl.remove t.idx_of key);
     t.adj.(k) <- [];
     t.live.(k) <- false;
     t.key_of.(k) <- -1;
     t.n <- k;
     t.cache <- saved_cache;
     raise Negative_cycle);
  t.live_count <- t.live_count + 1;
  if t.live_count > t.peak then t.peak <- t.live_count

let kill t key =
  let i = live_idx_exn t key in
  (* The node stays in the graph as a relay; only its live bit drops, and
     by Lemma 3.4 no live-pair distance changes, so the cache survives. *)
  t.live.(i) <- false;
  t.live_count <- t.live_count - 1

let restore (s : Agdp.snapshot) =
  let count = Array.length s.s_keys in
  if Array.length s.s_cells <> count * count then
    invalid_arg "Fw_oracle.restore: distance matrix size mismatch";
  let cap = max initial_capacity count in
  let t =
    {
      scale = s.s_scale;
      idx_of = Hashtbl.create (max 16 count);
      key_of = Array.make cap (-1);
      live = Array.make cap false;
      adj = Array.make cap [];
      n = count;
      cache = None;
      relax_count = s.s_relaxations;
      live_count = count;
      peak = max s.s_peak count;
    }
  in
  Array.iteri
    (fun i key ->
      t.key_of.(i) <- key;
      t.live.(i) <- true;
      Hashtbl.replace t.idx_of key i)
    s.s_keys;
  for i = 0 to count - 1 do
    let edges = ref [] in
    for j = count - 1 downto 0 do
      if j <> i then
        let v = s.s_cells.((i * count) + j) in
        if v <> max_int then edges := (j, Q.make_ints v s.s_scale) :: !edges
    done;
    t.adj.(i) <- !edges
  done;
  t
