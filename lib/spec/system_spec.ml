type t = {
  n : int;
  source : Event.proc;
  drift : Drift.t array;
  transit : (int, Transit.t) Hashtbl.t; (* key: u * n + v *)
  neighbors : Event.proc list array;
  n_links : int;
  lattice : int; (* D: every weight over whole-tick readings is in (1/D)·Z *)
  quantum : Q.t; (* 0 as declared; q once charged *)
  mutable charged : t option; (* [charge]'s result, computed once *)
}

let ticks_per_second = 1_000_000
let tick = Q.of_ints 1 ticks_per_second
let max_lattice = 1 lsl 40

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

let key t u v = (u * t.n) + v

let make ~n ~source ~drift ~links =
  if n <= 0 then invalid_arg "System_spec.make: n must be positive";
  if source < 0 || source >= n then invalid_arg "System_spec.make: bad source";
  let drift_arr =
    Array.init n (fun p -> if p = source then Drift.perfect else drift p)
  in
  let t =
    {
      n;
      source;
      drift = drift_arr;
      transit = Hashtbl.create (2 * List.length links);
      neighbors = Array.make n [];
      n_links = List.length links;
      lattice = 1;
      quantum = Q.zero;
      charged = None;
    }
  in
  List.iter
    (fun (u, v, tr) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "System_spec.make: link endpoint out of range";
      if u = v then invalid_arg "System_spec.make: self-loop";
      if Hashtbl.mem t.transit (key t u v) then
        invalid_arg "System_spec.make: duplicate link";
      Hashtbl.replace t.transit (key t u v) tr;
      Hashtbl.replace t.transit (key t v u) tr;
      t.neighbors.(u) <- v :: t.neighbors.(u);
      t.neighbors.(v) <- u :: t.neighbors.(v))
    links;
  Array.iteri
    (fun p ns -> t.neighbors.(p) <- List.sort compare ns)
    t.neighbors;
  { t with lattice = lattice_of ~drift:drift_arr ~links }

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
    (* links sharing a bound share its widening *)
    let widened = ref [] in
    let widen tr =
      match List.assq_opt tr !widened with
      | Some w -> w
      | None ->
        let w = Transit.widen q tr in
        widened := (tr, w) :: !widened;
        w
    in
    let transit = Hashtbl.copy t.transit in
    Hashtbl.filter_map_inplace (fun _ tr -> Some (widen tr)) transit;
    let c = { t with transit; quantum = q; charged = None } in
    t.charged <- Some c;
    c

let n t = t.n
let source t = t.source
let drift t p = t.drift.(p)
let transit t u v = Hashtbl.find_opt t.transit (key t u v)

let transit_exn t u v =
  match transit t u v with
  | Some tr -> tr
  | None ->
    invalid_arg (Printf.sprintf "System_spec.transit_exn: no link %d-%d" u v)

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

let pp fmt t =
  Format.fprintf fmt "@[<v>system: %d processors, source p%d, %d links@]" t.n
    t.source t.n_links
