exception Negative_cycle

(* The live nodes occupy slots [0 .. count-1].  Exact pairwise distances
   of the accumulated graph live in one flat row-major matrix of
   [cap * cap] cells (stride [cap]), so the O(L²) insert loop is index
   arithmetic on a single block instead of chasing a row pointer per
   access.  [kill] swaps the victim's slot with the last one, so the
   matrix stays compact.  The matrix doubles in capacity when full.

   Every weight lies in (1/scale)·Z for the [scale] fixed at creation
   (DESIGN.md Section 11), so cell [c] is the native int [d·scale], "no
   path" is [no_path], and a relaxation is one int add and one compare.
   The cells, and every sum the insert forms, stay within ±[max_cell],
   so no int operation below can overflow. *)
type t = {
  scale : int; (* lattice denominator D *)
  mutable c : int array; (* cells, cap * cap, row-major *)
  mutable cap : int;
  mutable keys : int array; (* slot -> key *)
  mutable col : int array; (* insert scratch: col.(i) = d(i, new) *)
  mutable row : int array; (* insert scratch: row.(i) = d(new, i) *)
  slot_of : (int, int) Hashtbl.t; (* key -> slot *)
  mutable count : int;
  mutable relax_count : int;
  mutable peak : int;
  sink : Trace.sink; (* Oracle_insert / Oracle_gc events *)
}

let initial_capacity = 8
let no_path = max_int
let max_cell = (1 lsl 61) - 1
let max_scale = 1 lsl 40

let make ~scale ~cap ~count ~relax_count ~peak ~sink =
  if scale < 1 || scale > max_scale then
    invalid_arg (Printf.sprintf "Agdp: scale %d is outside [1, 2^40]" scale);
  {
    scale;
    c = Array.make (cap * cap) no_path;
    cap;
    keys = Array.make cap (-1);
    col = [||];
    row = [||];
    slot_of = Hashtbl.create (max 16 count);
    count;
    relax_count;
    peak;
    sink;
  }

let create ?(sink = Trace.null) ~scale () =
  make ~scale ~cap:initial_capacity ~count:0 ~relax_count:0 ~peak:0 ~sink

let mem t key = Hashtbl.mem t.slot_of key
let size t = t.count
let capacity t = t.cap
let relaxations t = t.relax_count
let peak_size t = t.peak

let live_keys t =
  List.init t.count (fun i -> t.keys.(i)) |> List.sort compare

let slot_exn t key =
  match Hashtbl.find_opt t.slot_of key with
  | Some s -> s
  | None ->
    invalid_arg (Printf.sprintf "Agdp: node %d is not live" key)

let dist_cells t x y =
  let sx = slot_exn t x and sy = slot_exn t y in
  t.c.((sx * t.cap) + sy)

let dist t x y =
  let v = dist_cells t x y in
  if v = no_path then Ext.Inf else Ext.Fin (Q.make_ints v t.scale)

(* Re-stride the matrix into a fresh cap'-wide array (shared by grow
   and shrink). *)
let restride t cap' =
  let cap = t.cap in
  let move src fill =
    let dst = Array.make (cap' * cap') fill in
    for i = 0 to t.count - 1 do
      Array.blit src (i * cap) dst (i * cap') t.count
    done;
    dst
  in
  t.c <- move t.c no_path;
  let keys' = Array.make cap' (-1) in
  Array.blit t.keys 0 keys' 0 t.count;
  t.cap <- cap';
  t.keys <- keys'

(* Take the next slot for [key], growing the matrix when full. *)
let claim_slot t key =
  let k = t.count in
  if k = t.cap then restride t (2 * t.cap);
  t.count <- k + 1;
  t.keys.(k) <- key;
  Hashtbl.replace t.slot_of key k;
  if t.count > t.peak then t.peak <- t.count;
  k

let out_of_range what =
  invalid_arg (what ^ ": a distance leaves the lattice's ±(2^61 − 1)/D range")

(* [a + b] for two in-range cells, checked against the range (the add
   itself cannot overflow: |a|, |b| <= 2^61 - 1) *)
let checked_add a b =
  let s = a + b in
  if s > max_cell || s < -max_cell then out_of_range "Agdp.insert" else s

(* Three phases.  Phases 1 and 2 are read-only, so an
   [Invalid_argument] or [Negative_cycle] raised there leaves the
   structure as it was.  Past [claim_slot] nothing can fail: the range
   check ahead of Phase 3 bounds every sum it forms. *)
let insert_cells t ~key ~in_edges ~out_edges =
  let k = t.count in
  let c = t.c and cap = t.cap in
  (* Phase 1: distances to/from the new node, into scratch buffers.
     Every path i ⇝ k decomposes as i ⇝ a plus an edge (a, k), with
     i ⇝ a entirely over old nodes whose pairwise distances are already
     exact; symmetrically for k ⇝ i. *)
  if Array.length t.col < k then begin
    t.col <- Array.make t.cap no_path;
    t.row <- Array.make t.cap no_path
  end;
  let col = t.col and row = t.row in
  Array.fill col 0 k no_path;
  Array.fill row 0 k no_path;
  (* one pass over the rows per edge: the closure is built once per
     edge, never once per row *)
  List.iter
    (fun (a, w) ->
      for i = 0 to k - 1 do
        let dia = Array.unsafe_get c ((i * cap) + a) in
        if dia <> no_path then begin
          let v = checked_add dia w in
          if v < col.(i) then col.(i) <- v
        end
      done)
    in_edges;
  List.iter
    (fun (b, w) ->
      let base = b * cap in
      for i = 0 to k - 1 do
        let dbi = Array.unsafe_get c (base + i) in
        if dbi <> no_path then begin
          let v = checked_add w dbi in
          if v < row.(i) then row.(i) <- v
        end
      done)
    out_edges;
  let relaxed = ref (k * (List.length in_edges + List.length out_edges)) in
  (* Phase 2: a path through k and back is a cycle; reject negative
     ones, tracking the extremes of col and row on the way *)
  let col_lo = ref 0 and col_hi = ref 0 and row_lo = ref 0 and row_hi = ref 0 in
  for i = 0 to k - 1 do
    incr relaxed;
    let ci = col.(i) and ri = row.(i) in
    if ci <> no_path && ri <> no_path && ci + ri < 0 then raise Negative_cycle;
    if ci <> no_path then begin
      if ci < !col_lo then col_lo := ci;
      if ci > !col_hi then col_hi := ci
    end;
    if ri <> no_path then begin
      if ri < !row_lo then row_lo := ri;
      if ri > !row_hi then row_hi := ri
    end
  done;
  (* every Phase-3 candidate is some col.(i) + row.(j), so the sums of
     the extremes bound them all *)
  if !col_lo + !row_lo < -max_cell || !col_hi + !row_hi > max_cell then
    out_of_range "Agdp.insert";
  (* Phase 3: commit, then relax all pairs through the new node: O(L²).
     The diagonal cannot go negative: Phase 2 ruled out negative cycles
     through k, and the committed matrix had none. *)
  let k = claim_slot t key in
  let c = t.c and cap = t.cap in
  let krow = k * cap in
  for i = 0 to k - 1 do
    c.(krow + i) <- row.(i);
    c.((i * cap) + k) <- col.(i)
  done;
  c.(krow + k) <- 0;
  for i = 0 to k - 1 do
    let dik = Array.unsafe_get col i in
    if dik <> no_path then begin
      let base = i * cap in
      relaxed := !relaxed + k;
      for j = 0 to k - 1 do
        let dkj = Array.unsafe_get c (krow + j) in
        if dkj <> no_path then begin
          let v = dik + dkj in
          if v < Array.unsafe_get c (base + j) then
            Array.unsafe_set c (base + j) v
        end
      done
    end
  done;
  !relaxed

let insert t ~key ~in_edges ~out_edges =
  if mem t key then
    invalid_arg (Printf.sprintf "Agdp.insert: duplicate key %d" key);
  List.iter
    (fun (x, _) ->
      if x = key then invalid_arg "Agdp.insert: self-loop edge")
    (in_edges @ out_edges);
  let edge (x, w) =
    if w > max_cell || w < -max_cell then out_of_range "Agdp.insert";
    (slot_exn t x, w)
  in
  let relaxed =
    insert_cells t ~key ~in_edges:(List.map edge in_edges)
      ~out_edges:(List.map edge out_edges)
  in
  t.relax_count <- t.relax_count + relaxed;
  Trace.emit t.sink (Trace.Oracle_insert { key; live = t.count })

type snapshot = {
  s_scale : int;
  s_keys : int array;
  s_cells : int array;
  s_relaxations : int;
  s_peak : int;
}

let snapshot t =
  let n = t.count in
  let cells = Array.make (n * n) no_path in
  for i = 0 to n - 1 do
    Array.blit t.c (i * t.cap) cells (i * n) n
  done;
  {
    s_scale = t.scale;
    s_keys = Array.sub t.keys 0 n;
    s_cells = cells;
    s_relaxations = t.relax_count;
    s_peak = t.peak;
  }

(* Rejects a snapshot no insert/kill sequence can produce: repeated
   keys, a cell out of range, a diagonal other than 0, or a negative
   2-cycle. *)
let check_snapshot s =
  let n = Array.length s.s_keys and c = s.s_cells in
  if Array.length c <> n * n then
    invalid_arg "Agdp.restore: distance matrix size mismatch";
  let seen = Hashtbl.create (max 16 n) in
  Array.iter
    (fun key ->
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Agdp.restore: duplicate key %d" key);
      Hashtbl.replace seen key ())
    s.s_keys;
  Array.iter
    (fun v ->
      if v <> no_path && (v > max_cell || v < -max_cell) then
        out_of_range "Agdp.restore")
    c;
  for i = 0 to n - 1 do
    if c.((i * n) + i) <> 0 then
      invalid_arg "Agdp.restore: non-zero diagonal";
    for j = i + 1 to n - 1 do
      let a = c.((i * n) + j) and b = c.((j * n) + i) in
      if a <> no_path && b <> no_path && a + b < 0 then
        invalid_arg "Agdp.restore: negative cycle"
    done
  done

let restore ?(sink = Trace.null) s =
  check_snapshot s;
  let count = Array.length s.s_keys in
  let cap = max initial_capacity count in
  let t =
    make ~scale:s.s_scale ~cap ~count ~relax_count:s.s_relaxations
      ~peak:s.s_peak ~sink
  in
  Array.blit s.s_keys 0 t.keys 0 count;
  Array.iteri (fun i key -> Hashtbl.replace t.slot_of key i) s.s_keys;
  for i = 0 to count - 1 do
    Array.blit s.s_cells (i * count) t.c (i * cap) count
  done;
  t

(* Halve the matrix when occupancy drops to a quarter (floor at the
   initial capacity): after churn the structure tracks the live set
   instead of pinning peak-sized cap² cells forever.  Halving at 1/4 occupancy leaves the new matrix half
   empty, so a kill/insert flutter cannot thrash grow/shrink. *)
let shrink t =
  let cap' = Stdlib.max initial_capacity (t.cap / 2) in
  if cap' < t.cap then restride t cap'

(* Move the last slot into [s] (row blit, then column copy — at i = s
   the column copy also lands the diagonal d(last,last) in d(s,s)),
   then scrub the last slot to [fill]. *)
let move_last arr ~cap ~s ~last fill =
  if s <> last then begin
    Array.blit arr (last * cap) arr (s * cap) (last + 1);
    for i = 0 to last do
      arr.((i * cap) + s) <- arr.((i * cap) + last)
    done
  end;
  for i = 0 to last do
    arr.((last * cap) + i) <- fill;
    arr.((i * cap) + last) <- fill
  done

let kill t key =
  let s = slot_exn t key in
  let last = t.count - 1 in
  let cap = t.cap in
  move_last t.c ~cap ~s ~last no_path;
  if s <> last then begin
    let moved_key = t.keys.(last) in
    t.keys.(s) <- moved_key;
    Hashtbl.replace t.slot_of moved_key s
  end;
  t.keys.(last) <- -1;
  Hashtbl.remove t.slot_of key;
  t.count <- last;
  if t.count <= t.cap / 4 && t.cap > initial_capacity then shrink t;
  Trace.emit t.sink (Trace.Oracle_gc { key; live = t.count })
