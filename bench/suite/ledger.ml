(* Span ledger for the traced benchmark run.

   One process measures one workload, so the ledger is a single global
   recorder.  Spans are kept in memory (parallel growable arrays, no
   allocation per span beyond the name already interned by the caller)
   and written out only when the run ends.  The benchmark opens spans
   around its own calls into each layer's public functions; the
   program's [Prof] spans (AGDP insert/kill, codec encode/decode,
   checkpoint writes) arrive as leaves through {!prof}, parented to
   whatever benchmark span is open when they finish.

   While the ledger is off, [enter] and [leave] cost one branch each and
   read no clock. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type state = {
  mutable on : bool;
  mutable n : int;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable wakeups : int array;
  mutable stack : int list;
  mutable depth : int;
  mutable wakeup : int;
}

let st =
  {
    on = false;
    n = 0;
    names = [||];
    starts = [||];
    stops = [||];
    parents = [||];
    wakeups = [||];
    stack = [];
    depth = 0;
    wakeup = -1;
  }

let reset () =
  st.on <- false;
  st.n <- 0;
  st.names <- [||];
  st.starts <- [||];
  st.stops <- [||];
  st.parents <- [||];
  st.wakeups <- [||];
  st.stack <- [];
  st.depth <- 0;
  st.wakeup <- -1

let set_on b = st.on <- b
let count () = st.n

let grow () =
  if st.n = Array.length st.names then begin
    let cap = max 4096 (2 * st.n) in
    let ext a d =
      let b = Array.make cap d in
      Array.blit a 0 b 0 st.n;
      b
    in
    st.names <- ext st.names "";
    st.starts <- ext st.starts 0.;
    st.stops <- ext st.stops 0.;
    st.parents <- ext st.parents (-1);
    st.wakeups <- ext st.wakeups (-1)
  end

let record name ~start ~stop =
  grow ();
  let id = st.n in
  st.n <- id + 1;
  (* a span at depth 0 or 1 (a window, or one scheduler wakeup of a
     driver inside it) starts a new wakeup; deeper spans inherit it *)
  if st.depth <= 1 then st.wakeup <- st.wakeup + 1;
  st.names.(id) <- name;
  st.starts.(id) <- start;
  st.stops.(id) <- stop;
  st.parents.(id) <- (match st.stack with p :: _ -> p | [] -> -1);
  st.wakeups.(id) <- st.wakeup;
  id

(* [open_at]/[close_at] take the caller's clock readings, so a harness
   that times a call anyway pays no extra clock read for the span *)
let open_at name start =
  if not st.on then -1
  else begin
    let id = record name ~start ~stop:start in
    st.stack <- id :: st.stack;
    st.depth <- st.depth + 1;
    id
  end

let close_at id stop =
  if id >= 0 then begin
    st.stops.(id) <- stop;
    (match st.stack with _ :: rest -> st.stack <- rest | [] -> ());
    st.depth <- st.depth - 1
  end

let enter name = if st.on then open_at name (now ()) else -1
let leave id = if id >= 0 then close_at id (now ())

let leaf name ~dur =
  if st.on then begin
    let stop = now () in
    ignore (record name ~start:(stop -. dur) ~stop)
  end

(* "agdp_insert" -> "agdp.insert": the module is the first word *)
let layer_of_prof = function
  | "checkpoint_write" -> "fault.checkpoint_write"
  | s -> (
    match String.index_opt s '_' with
    | Some i -> String.sub s 0 i ^ "." ^ String.sub s (i + 1) (String.length s - i - 1)
    | None -> s)

(* The program's own spans, as ledger leaves.  The clock is read only
   while the ledger is on, so a traced process's untraced windows pay a
   closure call per operation, not a clock read. *)
let prof () =
  let names = Hashtbl.create 8 in
  let name s =
    match Hashtbl.find_opt names s with
    | Some n -> n
    | None ->
      let n = layer_of_prof s in
      Hashtbl.add names s n;
      n
  in
  Prof.make
    ~now:(fun () -> if st.on then now () else 0.)
    ~sink:
      (Trace.callback (function
        | Trace.Span { name = s; dur } -> leaf (name s) ~dur
        | _ -> ()))
    ()

(* ---- aggregation ---- *)

type agg = {
  mutable total : float;  (* summed durations *)
  mutable self : float;  (* summed self times, each clamped at 0 *)
  mutable calls : int;
  mutable durs : float list;
}

(* Self time is a span's duration minus its children's durations.  It is
   clamped at zero so that any double counting (children overlapping
   each other or outliving their parent) shows up as a ledger that sums
   to more than the wall clock, instead of cancelling out. *)
let aggregate () =
  let child = Array.make st.n 0. in
  for i = 0 to st.n - 1 do
    let p = st.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (st.stops.(i) -. st.starts.(i))
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to st.n - 1 do
    let a =
      match Hashtbl.find_opt tbl st.names.(i) with
      | Some a -> a
      | None ->
        let a = { total = 0.; self = 0.; calls = 0; durs = [] } in
        Hashtbl.add tbl st.names.(i) a;
        a
    in
    let d = st.stops.(i) -. st.starts.(i) in
    a.total <- a.total +. d;
    a.self <- a.self +. Float.max 0. (d -. child.(i));
    a.calls <- a.calls + 1;
    a.durs <- d :: a.durs
  done;
  tbl

let roots_total () =
  let s = ref 0. in
  for i = 0 to st.n - 1 do
    if st.parents.(i) < 0 then s := !s +. (st.stops.(i) -. st.starts.(i))
  done;
  !s

let write_jsonl oc ~workload =
  let t0 = if st.n > 0 then st.starts.(0) else 0. in
  for i = 0 to st.n - 1 do
    output_string oc
      (Json_out.to_line
         (Json_out.Obj
            [
              ("workload", Json_out.Str workload);
              ("id", Json_out.Int i);
              ("name", Json_out.Str st.names.(i));
              ("start", Json_out.Float (st.starts.(i) -. t0));
              ("end", Json_out.Float (st.stops.(i) -. t0));
              ("parent", Json_out.Int st.parents.(i));
              ("wakeup", Json_out.Int st.wakeups.(i));
            ]));
    output_char oc '\n'
  done
