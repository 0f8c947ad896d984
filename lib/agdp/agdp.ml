exception Negative_cycle

(* The live nodes occupy slots [0 .. count-1].  Exact pairwise distances
   of the accumulated graph live in one flat row-major matrix of
   [cap * cap] cells (stride [cap]), so the O(L²) insert loop is index
   arithmetic on a single block instead of chasing a row pointer per
   access.  [kill] swaps the victim's slot with the last one, so the
   matrix stays compact.  The matrix doubles in capacity when full.

   The matrix has two numeric representations (DESIGN.md Section 11):

   - the lattice: while every weight seen lies in (1/scale)·Z for a
     scale at most [max_scale], cell [c] is the native int [c·scale],
     "no path" is [no_path], and a relaxation is one int add and one
     compare.  The scale is the lcm of the weight denominators seen so
     far; a weight with a new denominator grows it and rescales the
     cells.  The cells, and every sum the insert forms, stay within
     ±[max_cell], so no int operation below can overflow.
   - the exact matrix: [Q.t] cells (no path is the out-of-band
     [Q.sentinel]); each rational's own float enclosure lets most
     relaxations reject a candidate without building it.

   The first weight off the lattice, a scale beyond [max_scale], or a
   cell or sum beyond ±[max_cell] promotes the structure, for good, to
   the exact matrix.  [scale = 0] marks a promoted structure; exactly one
   of [c] and [d] is in use, the other is empty. *)
type t = {
  mutable scale : int; (* lattice denominator; 0 once promoted *)
  mutable c : int array; (* lattice cells, cap * cap, row-major *)
  mutable d : Q.t array; (* exact cells, cap * cap, row-major *)
  mutable cap : int;
  mutable keys : int array; (* slot -> key *)
  slot_of : (int, int) Hashtbl.t; (* key -> slot *)
  mutable count : int;
  mutable relax_count : int;
  mutable peak : int;
  sink : Trace.sink; (* Oracle_insert / Oracle_gc events *)
}

let initial_capacity = 8
let inf = Q.sentinel
let is_inf = Q.is_sentinel
let no_path = max_int
let max_cell = (1 lsl 61) - 1
let max_scale = 1 lsl 40

(* Raised inside the lattice insert, before anything is committed, when
   the insert cannot stay on the lattice; [insert] then promotes and
   runs the exact insert instead. *)
exception Off_lattice

let make ~cap ~count ~relax_count ~peak ~sink =
  {
    scale = 1;
    c = Array.make (cap * cap) no_path;
    d = [||];
    cap;
    keys = Array.make cap (-1);
    slot_of = Hashtbl.create (max 16 count);
    count;
    relax_count;
    peak;
    sink;
  }

let create ?(sink = Trace.null) () =
  make ~cap:initial_capacity ~count:0 ~relax_count:0 ~peak:0 ~sink

let mem t key = Hashtbl.mem t.slot_of key
let size t = t.count
let capacity t = t.cap
let relaxations t = t.relax_count
let peak_size t = t.peak
let scale t = if t.scale > 0 then Some t.scale else None

let live_keys t =
  List.init t.count (fun i -> t.keys.(i)) |> List.sort compare

let slot_exn t key =
  match Hashtbl.find_opt t.slot_of key with
  | Some s -> s
  | None ->
    invalid_arg (Printf.sprintf "Agdp: node %d is not live" key)

(* the exact value of cell [idx], whichever representation holds it *)
let cell t idx =
  if t.scale > 0 then
    let v = t.c.(idx) in
    if v = no_path then Ext.Inf else Ext.Fin (Q.make_ints v t.scale)
  else
    let v = t.d.(idx) in
    if is_inf v then Ext.Inf else Ext.Fin v

let dist t x y =
  let sx = slot_exn t x and sy = slot_exn t y in
  cell t ((sx * t.cap) + sy)

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
  if t.scale > 0 then t.c <- move t.c no_path else t.d <- move t.d inf;
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

(* One-way switch to the exact matrix: every lattice cell becomes the
   rational it stands for. *)
let promote t =
  t.d <- Array.make (t.cap * t.cap) inf;
  for i = 0 to t.count - 1 do
    for j = 0 to t.count - 1 do
      let idx = (i * t.cap) + j in
      let v = t.c.(idx) in
      if v <> no_path then t.d.(idx) <- Q.make_ints v t.scale
    done
  done;
  t.c <- [||];
  t.scale <- 0

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The smallest lattice scale that is a multiple of [s] and admits the
   denominator of [w]. *)
let widen_scale s w =
  match Bigint.to_int_opt (Q.den w) with
  | Some den when den <= max_scale ->
    if s mod den = 0 then s
    else
      let f = den / gcd s den in
      if s > max_scale / f then raise Off_lattice else s * f
  | _ -> raise Off_lattice

(* Multiply every live cell by [f], checking all of them before writing
   any, so an overflow leaves the cells as they were. *)
let rescale t f =
  let bound = max_cell / f in
  for i = 0 to t.count - 1 do
    for j = 0 to t.count - 1 do
      let v = t.c.((i * t.cap) + j) in
      if v <> no_path && (v > bound || v < -bound) then raise Off_lattice
    done
  done;
  for i = 0 to t.count - 1 do
    for j = 0 to t.count - 1 do
      let idx = (i * t.cap) + j in
      let v = t.c.(idx) in
      if v <> no_path then t.c.(idx) <- v * f
    done
  done;
  t.scale <- t.scale * f

(* [w] in units of 1/[s]; [s] is a multiple of its denominator. *)
let to_cell s w =
  match Bigint.to_int_opt (Q.num w), Bigint.to_int_opt (Q.den w) with
  | Some n, Some den ->
    let m = s / den in
    if n > max_cell / m || n < -(max_cell / m) then raise Off_lattice
    else n * m
  | _ -> raise Off_lattice

(* [a + b] for two in-range cells, or [Off_lattice] when the sum leaves
   the range (the add itself cannot overflow: |a|, |b| <= 2^61 - 1) *)
let checked_add a b =
  let s = a + b in
  if s > max_cell || s < -max_cell then raise Off_lattice else s

(* The insert on the lattice: the same three phases as [insert_exact]
   below, over native ints.  Everything before [claim_slot] is read-only
   apart from a rescale, which keeps every distance's value; so an
   [Off_lattice] or [Negative_cycle] raised there leaves the structure
   as it was.  Past [claim_slot] nothing can fail: the range check ahead
   of Phase 3 bounds every sum it forms. *)
let insert_lattice t ~key ~in_edges ~out_edges =
  let s =
    List.fold_left (fun s (_, w) -> widen_scale s w) t.scale
      (List.rev_append in_edges out_edges)
  in
  if s <> t.scale then rescale t (s / t.scale);
  let in_edges = List.map (fun (a, w) -> (a, to_cell s w)) in_edges
  and out_edges = List.map (fun (b, w) -> (b, to_cell s w)) out_edges in
  let k = t.count in
  let c = t.c and cap = t.cap in
  let relaxed = ref 0 in
  let col = Array.make (max k 1) no_path in (* col.(i) = d(i, k) *)
  let row = Array.make (max k 1) no_path in (* row.(i) = d(k, i) *)
  for i = 0 to k - 1 do
    let base = i * cap in
    List.iter
      (fun (a, w) ->
        incr relaxed;
        let dia = Array.unsafe_get c (base + a) in
        if dia <> no_path then begin
          let v = checked_add dia w in
          if v < col.(i) then col.(i) <- v
        end)
      in_edges;
    List.iter
      (fun (b, w) ->
        incr relaxed;
        let dbi = Array.unsafe_get c ((b * cap) + i) in
        if dbi <> no_path then begin
          let v = checked_add w dbi in
          if v < row.(i) then row.(i) <- v
        end)
      out_edges
  done;
  (* Phase 2, tracking the extremes of col and row on the way *)
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
    raise Off_lattice;
  (* Phase 3: commit *)
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

(* Relaxation core shared by the exact Phase-1 and Phase-3 loops:
   improve [arr.(idx)] with the candidate path [a + b] if it is shorter.
   The operands' float enclosures (Q.Approx.add_cmp) decide without
   building the sum, so the steady-state "candidate does not improve"
   rejection costs a few flops and never allocates; only actual
   improvements and inconclusive overlaps pay the exact addition. *)
let relax arr idx a b =
  let cur = Array.unsafe_get arr idx in
  if is_inf cur then Array.unsafe_set arr idx (Q.add a b)
  else
    let c = Q.Approx.add_cmp a b cur in
    if c < 0 then Array.unsafe_set arr idx (Q.add a b)
    else if c = 0 then begin
      let cand = Q.add a b in
      if Q.compare cand cur < 0 then Array.unsafe_set arr idx cand
    end

let insert_exact t ~key ~in_edges ~out_edges =
  let k = t.count in
  let d = t.d and cap = t.cap in
  let relaxed = ref 0 in
  (* Phase 1, read-only: distances to/from the new node, into scratch
     buffers.  Every path i ⇝ k decomposes as i ⇝ a plus an edge (a, k),
     with i ⇝ a entirely over old nodes whose pairwise distances are
     already exact; symmetrically for k ⇝ i. *)
  let col = Array.make (max k 1) inf in (* col.(i) = d(i, k) *)
  let row = Array.make (max k 1) inf in (* row.(i) = d(k, i) *)
  for i = 0 to k - 1 do
    let base = i * cap in
    List.iter
      (fun (a, w) ->
        incr relaxed;
        let dia = Array.unsafe_get d (base + a) in
        if not (is_inf dia) then relax col i dia w)
      in_edges;
    List.iter
      (fun (b, w) ->
        incr relaxed;
        let dbi = Array.unsafe_get d ((b * cap) + i) in
        if not (is_inf dbi) then relax row i w dbi)
      out_edges
  done;
  (* Phase 2, still read-only: a path through k and back would be a
     cycle; detect negative ones against the scratch buffers.  Nothing
     has been committed yet, so raising here leaves the structure exactly
     as it was before the call — the exception-safety guarantee of the
     interface. *)
  for i = 0 to k - 1 do
    incr relaxed;
    let c = Array.unsafe_get col i and r = Array.unsafe_get row i in
    if (not (is_inf c)) && not (is_inf r) then begin
      (* sign of r + c against zero straight from the enclosures; the
         exact sum is built only when the bounds straddle zero *)
      let s = Q.Approx.add_cmp r c Q.zero in
      if s < 0 || (s = 0 && Q.sign (Q.add r c) < 0) then
        raise Negative_cycle
    end
  done;
  (* Phase 3: commit; no failure can occur past this point. *)
  let k = claim_slot t key in
  let d = t.d and cap = t.cap in
  let krow = k * cap in
  for i = 0 to k - 1 do
    d.(krow + i) <- row.(i);
    d.((i * cap) + k) <- col.(i)
  done;
  d.(krow + k) <- Q.zero;
  (* Relax all pairs through the new node: O(L²).  The diagonal cannot go
     negative: phase 2 ruled out negative cycles through k, and the
     committed matrix had none. *)
  for i = 0 to k - 1 do
    let dik = Array.unsafe_get col i in
    if not (is_inf dik) then begin
      let base = i * cap in
      relaxed := !relaxed + k;
      for j = 0 to k - 1 do
        let dkj = Array.unsafe_get d (krow + j) in
        if not (is_inf dkj) then relax d (base + j) dik dkj
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
  let in_edges = List.map (fun (x, w) -> (slot_exn t x, w)) in_edges
  and out_edges = List.map (fun (y, w) -> (slot_exn t y, w)) out_edges in
  let relaxed =
    if t.scale = 0 then insert_exact t ~key ~in_edges ~out_edges
    else
      match insert_lattice t ~key ~in_edges ~out_edges with
      | r -> r
      | exception Off_lattice ->
        promote t;
        insert_exact t ~key ~in_edges ~out_edges
  in
  t.relax_count <- t.relax_count + relaxed;
  Trace.emit t.sink (Trace.Oracle_insert { key; live = t.count })

type snapshot = {
  s_keys : int array;
  s_dist : Ext.t array;
  s_relaxations : int;
  s_peak : int;
}

let snapshot t =
  let n = t.count in
  {
    s_keys = Array.sub t.keys 0 n;
    s_dist = Array.init (n * n) (fun x -> cell t (((x / n) * t.cap) + (x mod n)));
    s_relaxations = t.relax_count;
    s_peak = t.peak;
  }

(* Rejects a snapshot no insert/kill sequence can produce: repeated
   keys, a diagonal other than 0, or a negative 2-cycle. *)
let check_snapshot s =
  let n = Array.length s.s_keys in
  if Array.length s.s_dist <> n * n then
    invalid_arg "Agdp.restore: distance matrix size mismatch";
  let seen = Hashtbl.create (max 16 n) in
  Array.iter
    (fun key ->
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Agdp.restore: duplicate key %d" key);
      Hashtbl.replace seen key ())
    s.s_keys;
  for i = 0 to n - 1 do
    (match s.s_dist.((i * n) + i) with
    | Ext.Fin q when Q.is_zero q -> ()
    | _ -> invalid_arg "Agdp.restore: non-zero diagonal");
    for j = i + 1 to n - 1 do
      match s.s_dist.((i * n) + j), s.s_dist.((j * n) + i) with
      | Ext.Fin a, Ext.Fin b when Q.sign (Q.add a b) < 0 ->
        invalid_arg "Agdp.restore: negative cycle"
      | _ -> ()
    done
  done

let restore ?(sink = Trace.null) s =
  check_snapshot s;
  let count = Array.length s.s_keys in
  let cap = max initial_capacity count in
  let t =
    make ~cap ~count ~relax_count:s.s_relaxations ~peak:s.s_peak ~sink
  in
  Array.blit s.s_keys 0 t.keys 0 count;
  Array.iteri (fun i key -> Hashtbl.replace t.slot_of key i) s.s_keys;
  let place x = ((x / count) * cap) + (x mod count) in
  (* learn the lattice from the distances themselves; the original
     structure's scale may have been a multiple of it *)
  (match
     let sc =
       Array.fold_left
         (fun sc v -> match v with Ext.Fin q -> widen_scale sc q | Ext.Inf -> sc)
         1 s.s_dist
     in
     ( sc,
       Array.map
         (function Ext.Fin q -> to_cell sc q | Ext.Inf -> no_path)
         s.s_dist )
   with
  | sc, cells ->
    t.scale <- sc;
    Array.iteri (fun x v -> t.c.(place x) <- v) cells
  | exception Off_lattice ->
    promote t;
    Array.iteri
      (fun x v ->
        match v with Ext.Fin q -> t.d.(place x) <- q | Ext.Inf -> ())
      s.s_dist);
  t

(* Halve the matrix when occupancy drops to a quarter (floor at the
   initial capacity): after churn the structure tracks the live set
   instead of pinning peak-sized cap² cells — and their boxed rationals'
   slots — forever.  Halving at 1/4 occupancy leaves the new matrix half
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
  (* scrubbing the dead slot lets its rationals be reclaimed *)
  if t.scale > 0 then move_last t.c ~cap ~s ~last no_path
  else move_last t.d ~cap ~s ~last inf;
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
