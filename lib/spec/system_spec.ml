type link_cells = { lo_cells : int; hi_cells : int option }

type t = {
  n : int;
  source : Event.proc;
  drift : Drift.t array;
  (* key: u * n + v; a link's bound and its cells *)
  transit : (int, Transit.t * link_cells) Hashtbl.t;
  neighbors : Event.proc list array;
  n_links : int;
  lattice : int; (* D: every weight over whole-tick readings is in (1/D)·Z *)
  quantum : Q.t; (* 0 as declared; q once charged *)
  cells_per_tick : int; (* D / ticks_per_second *)
  up_cells : int array; (* per processor: (rmax − 1)·D / ticks_per_s. *)
  down_cells : int array; (* per processor: (1 − rmin)·D / ticks_per_s. *)
  mutable charged : t option; (* [charge]'s result, computed once *)
}

let ticks_per_second = 1_000_000
let tick = Q.of_ints 1 ticks_per_second
let q_of_ticks k = Q.div_pow10 k 6 (* ticks_per_second = 10^6 *)
let max_lattice = 1 lsl 40
let max_cell = (1 lsl 61) - 1

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The lcm of the denominators a synchronization-graph weight can carry
   when every reading is a whole tick: the tick, (rmax − 1)·tick and
   (1 − rmin)·tick of each processor (drift edges), and each finite
   transit bound (message edges).  Charging adds whole ticks, so it
   keeps D.  [what] names the bound that would push D past 2^40. *)
let lattice_of ~drift ~links =
  let grow d what q =
    let refuse () =
      invalid_arg
        (Printf.sprintf
           "System_spec.make: the %s puts the lattice denominator past 2^40"
           (what ()))
    in
    match Bigint.to_int_opt (Q.den q) with
    | Some den when den <= max_lattice ->
      let f = den / gcd d den in
      if d > max_lattice / f then refuse () else d * f
    | _ -> refuse ()
  in
  (* a bound shared with the previous processor or link (as every one
     of a uniform spec's is) adds nothing *)
  let d = ref ticks_per_second and last_dr = ref Drift.perfect in
  Array.iteri
    (fun p (dr : Drift.t) ->
      if dr != !last_dr then begin
        last_dr := dr;
        let what () = Printf.sprintf "drift bound of processor %d" p in
        d := grow !d what (Q.mul (Q.sub dr.rmax Q.one) tick);
        d := grow !d what (Q.mul (Q.sub Q.one dr.rmin) tick)
      end)
    drift;
  let last_tr = ref Transit.asynchronous in
  List.iter
    (fun (u, v, (tr : Transit.t)) ->
      if tr != !last_tr then begin
        last_tr := tr;
        let what () = Printf.sprintf "transit bound of link %d-%d" u v in
        d := grow !d what tr.lo;
        match tr.hi with Ext.Fin hi -> d := grow !d what hi | Ext.Inf -> ()
      end)
    links;
  !d

(* [x·scale] for a [scale] that D made a multiple of [x]'s denominator,
   in native ints; refused past ±(2^61 − 1) *)
let to_cells ~scale what x =
  match Bigint.to_int_opt (Q.num x), Bigint.to_int_opt (Q.den x) with
  | Some n, Some d when scale mod d = 0 && abs n <= max_cell / (scale / d) ->
    n * (scale / d)
  | _ -> invalid_arg ("System_spec.make: a " ^ what ^ " bound is out of range")

let link ~lattice (tr : Transit.t) =
  let cells = to_cells ~scale:lattice "transit" in
  let hi_cells =
    match tr.hi with Ext.Fin hi -> Some (cells hi) | Ext.Inf -> None
  in
  (tr, { lo_cells = cells tr.lo; hi_cells })

(* [f] once per physically distinct argument: processors and links
   sharing a bound share its cells and, once charged, its widening *)
let memo f =
  let seen = ref [] in
  fun x ->
    match List.assq_opt x !seen with
    | Some y -> y
    | None ->
      let y = f x in
      seen := (x, y) :: !seen;
      y

let make ~n ~source ~drift ~links =
  if n <= 0 then invalid_arg "System_spec.make: n must be positive";
  if source < 0 || source >= n then invalid_arg "System_spec.make: bad source";
  let drift =
    Array.init n (fun p -> if p = source then Drift.perfect else drift p)
  in
  let lattice = lattice_of ~drift ~links in
  let transit = Hashtbl.create (2 * List.length links) in
  let neighbors = Array.make n [] and link = memo (link ~lattice) in
  List.iter
    (fun (u, v, tr) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "System_spec.make: link endpoint out of range";
      if u = v then invalid_arg "System_spec.make: self-loop";
      if Hashtbl.mem transit ((u * n) + v) then
        invalid_arg "System_spec.make: duplicate link";
      let l = link tr in
      Hashtbl.replace transit ((u * n) + v) l;
      Hashtbl.replace transit ((v * n) + u) l;
      neighbors.(u) <- v :: neighbors.(u);
      neighbors.(v) <- u :: neighbors.(v))
    links;
  let per_tick f =
    let scale = lattice / ticks_per_second in
    Array.map (memo (fun d -> to_cells ~scale "drift" (f d))) drift
  in
  {
    n;
    source;
    drift;
    transit;
    neighbors = Array.map (List.sort compare) neighbors;
    n_links = List.length links;
    lattice;
    quantum = Q.zero;
    cells_per_tick = lattice / ticks_per_second;
    up_cells = per_tick (fun (d : Drift.t) -> Q.sub d.rmax Q.one);
    down_cells = per_tick (fun (d : Drift.t) -> Q.sub Q.one d.rmin);
    charged = None;
  }

let uniform ~n ~source ~drift ~transit ~links =
  make ~n ~source
    ~drift:(fun _ -> drift)
    ~links:(List.map (fun (u, v) -> (u, v, transit)) links)

let lattice t = t.lattice
let quantum t = t.quantum

let cover t i =
  if Q.sign t.quantum = 0 then i
  else Interval.widen i ~lo_by:Q.zero ~hi_by:t.quantum

(* q: the smallest whole number of ticks at or above tick·rmax, over
   every processor (DESIGN.md Section 4) *)
let charge t =
  match t.charged with
  | Some c -> c
  | None when Q.sign t.quantum > 0 -> t
  | None ->
    let rmax =
      Array.fold_left (fun m (d : Drift.t) -> Q.max m d.rmax) Q.one t.drift
    in
    let k, r = Bigint.divmod (Q.num rmax) (Q.den rmax) in
    let k = if Bigint.sign r > 0 then Bigint.add_int k 1 else k in
    let q = Q.mul tick (Q.of_bigint k) in
    let widen =
      memo (fun (tr, _) -> link ~lattice:t.lattice (Transit.widen q tr))
    in
    let transit = Hashtbl.copy t.transit in
    Hashtbl.filter_map_inplace (fun _ l -> Some (widen l)) transit;
    let c = { t with transit; quantum = q; charged = None } in
    t.charged <- Some c;
    c

let n t = t.n
let source t = t.source
let drift t p = t.drift.(p)
let key t u v = (u * t.n) + v
let transit t u v = Option.map fst (Hashtbl.find_opt t.transit (key t u v))

let transit_exn t u v =
  match transit t u v with
  | Some tr -> tr
  | None ->
    invalid_arg (Printf.sprintf "System_spec.transit_exn: no link %d-%d" u v)

let cells_per_tick t = t.cells_per_tick
let up_cells t p = t.up_cells.(p)
let down_cells t p = t.down_cells.(p)

let link_cells_exn t u v =
  match Hashtbl.find_opt t.transit (key t u v) with
  | Some (_, c) -> c
  | None ->
    invalid_arg (Printf.sprintf "System_spec.link_cells_exn: no link %d-%d" u v)

let neighbors t p = t.neighbors.(p)
let degree t p = List.length t.neighbors.(p)

let max_degree t =
  let d = ref 0 in
  for p = 0 to t.n - 1 do
    d := max !d (degree t p)
  done;
  !d

let n_links t = t.n_links

(* BFS from every node; n is small in all our scenarios. *)
let diameter t =
  let worst = ref 0 in
  let dist = Array.make t.n (-1) in
  for s = 0 to t.n - 1 do
    Array.fill dist 0 t.n (-1);
    dist.(s) <- 0;
    let q = Queue.create () in
    Queue.push s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            Queue.push v q
          end)
        t.neighbors.(u)
    done;
    Array.iter
      (fun d -> if d < 0 then worst := max_int else worst := max !worst d)
      dist
  done;
  !worst

let is_connected t = diameter t < max_int
