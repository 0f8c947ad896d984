type packet = { at : Q.t; seq : int; src : int; dst : int; bytes : string }

(* one destination address: its pending packets, sorted by (at, seq), so
   recv is a head pop instead of a scan of everyone's traffic *)
type dest = { mutable pending : packet list }

type fabric = {
  rng : Rng.t;
  loss : float;
  delay_lo : Q.t;
  delay_hi : Q.t;
  mutable vnow : Q.t;
  queues : (int, dest) Hashtbl.t;
  (* the delivery schedule, (dst, seq) keyed by arrival time.  Entries
     are never updated in place — consumption makes them stale and they
     are discarded lazily when they surface (an entry is live iff its
     packet is still the head of its destination queue; both structures
     share the (at, seq) order, so the check is one head comparison) *)
  sched : (int * int) Heap.t;
  mutable next_seq : int;
  mutable delivered : int;
  mutable dropped : int;
}

type endpoint = { fab : fabric; id : int; offset : Q.t; rate : Q.t }

let fabric ?(seed = 11) ?(loss = 0.) ~delay_lo ~delay_hi () =
  if Q.sign delay_lo <= 0 then
    invalid_arg "Loopback.fabric: delay_lo must be positive";
  if Q.(delay_hi < delay_lo) then
    invalid_arg "Loopback.fabric: delay_hi < delay_lo";
  {
    rng = Rng.create seed;
    loss;
    delay_lo;
    delay_hi;
    vnow = Q.zero;
    queues = Hashtbl.create 64;
    sched = Heap.create ();
    next_seq = 0;
    delivered = 0;
    dropped = 0;
  }

let dest fab id =
  match Hashtbl.find_opt fab.queues id with
  | Some d -> d
  | None ->
    let d = { pending = [] } in
    Hashtbl.replace fab.queues id d;
    d

let endpoint fab ~id ?(offset = Q.zero) ?(rate = Q.one) () =
  if Q.sign rate <= 0 then
    invalid_arg "Loopback.endpoint: rate must be positive";
  { fab; id; offset; rate }

let vnow fab = fab.vnow
let delivered fab = fab.delivered
let dropped fab = fab.dropped
let local_of_virtual ep vt = Q.add ep.offset (Q.mul ep.rate vt)
let virtual_of_local ep lt = Q.div (Q.sub lt ep.offset) ep.rate

let queue_head fab dst =
  match Hashtbl.find_opt fab.queues dst with
  | Some { pending = p :: _ } -> Some p
  | _ -> None

let queue_pop fab dst =
  match Hashtbl.find_opt fab.queues dst with
  | Some ({ pending = p :: rest } as d) ->
    d.pending <- rest;
    Some p
  | _ -> None

let insert_sorted fab d p =
  let earlier q =
    Q.(q.at < p.at) || (Q.(q.at = p.at) && q.seq < p.seq)
  in
  let rec go = function
    | q :: rest when earlier q -> q :: go rest
    | rest -> p :: rest
  in
  d.pending <- go d.pending;
  (* sends push in [seq] order, so the heap's push-order tie-break is
     the packets' own *)
  Heap.push fab.sched ~at:p.at (p.dst, p.seq)

(* drop stale heads (consumed or discarded packets); the surviving head
   is the fabric's next delivery, as (at, dst) *)
let sched_head fab =
  Heap.peek_live fab.sched ~live:(fun _ (dst, seq) ->
      match queue_head fab dst with Some p -> p.seq = seq | None -> false)
  |> Option.map (fun (at, (dst, _)) -> (at, dst))

let sched_drop fab = ignore (Heap.pop fab.sched)

module Net = struct
  type t = endpoint
  type addr = int

  let equal_addr = Int.equal
  let string_of_addr = string_of_int
  (* the floor tick of [offset + rate·vnow], from float bounds on it
     (each operation rounded outward by one ulp) when they settle the
     tick, so the exact reading is built only next to a tick boundary *)
  let now ep =
    let v = ep.fab.vnow and r = ep.rate and o = ep.offset in
    let v_lo = Q.Approx.lo v and r_lo = Q.Approx.lo r in
    let bounded =
      if v_lo >= 0. && r_lo > 0. then
        Clock.floor_tick_within
          (Float.pred (Q.Approx.lo o +. Float.pred (r_lo *. v_lo)))
          (Float.succ
             (Q.Approx.hi o +. Float.succ (Q.Approx.hi r *. Q.Approx.hi v)))
      else None
    in
    match bounded with
    | Some lt -> lt
    | None -> Clock.floor_tick (local_of_virtual ep v)

  let send ep dst bytes =
    let fab = ep.fab in
    if fab.loss > 0. && Rng.bernoulli fab.rng ~p:fab.loss then
      fab.dropped <- fab.dropped + 1
    else begin
      let d =
        if Q.(fab.delay_lo = fab.delay_hi) then fab.delay_lo
        else Rng.q_between fab.rng fab.delay_lo fab.delay_hi
      in
      let p =
        { at = Q.add fab.vnow d; seq = fab.next_seq; src = ep.id; dst; bytes }
      in
      fab.next_seq <- fab.next_seq + 1;
      insert_sorted fab (dest fab dst) p
    end

  (* non-blocking by design: time only moves in [run] *)
  let recv ep ~buf ~timeout:_ =
    let fab = ep.fab in
    match queue_head fab ep.id with
    | Some p when Q.(p.at <= fab.vnow) ->
      ignore (queue_pop fab ep.id);
      fab.delivered <- fab.delivered + 1;
      (* mirror the kernel: copy into the caller's buffer, truncating
         an oversized datagram (the checksum rejects it downstream) *)
      let len = min (String.length p.bytes) (Bytes.length buf) in
      Bytes.blit_string p.bytes 0 buf 0 len;
      Some (p.src, len)
    | _ -> None
end

module L = Loop.Make (Net)

let deliverable fab =
  match sched_head fab with
  | Some (at, _) -> Q.(at <= fab.vnow)
  | None -> false

(* The scheduler only needs three things from whatever it is driving: a
   non-blocking poll step, the next virtual-time deadline, and the
   endpoint address it receives on (so a thousand idle drivers are not
   polled for every datagram addressed to someone else; [addr = None]
   falls back to polling on every step).  A [Loop] is one such driver;
   the hub (many sessions behind one endpoint) is another. *)
type driver = {
  poll : unit -> unit;
  next_vt : unit -> Q.t option;
  addr : int option;
}

let driver_of_loop l =
  {
    poll = (fun () -> L.poll l ~max_wait:Q.zero);
    next_vt =
      (fun () ->
        match Session.next_deadline (L.session l) with
        | None -> None
        | Some d -> Some (virtual_of_local (L.net l) d));
    addr = Some (L.net l).id;
  }

let run_drivers fab ~drivers ~until ?(script = []) () =
  let drivers = Array.of_list drivers in
  let k = Array.length drivers in
  let by_addr = Hashtbl.create (max 16 k) in
  Array.iteri
    (fun i d -> Option.iter (fun a -> Hashtbl.replace by_addr a i) d.addr)
    drivers;
  (* cached next deadlines, in virtual time; refreshed only for drivers
     that were polled (their state is the only one that moved).  A lazy
     min-heap mirrors the cache so finding the earliest deadline — and
     the set of due drivers — never scans all K drivers: an entry is
     live iff it still equals its driver's cached deadline, and stale
     entries are discarded when they surface, exactly like the packet
     schedule above. *)
  let deadline = Array.map (fun d -> d.next_vt ()) drivers in
  let dheap = Heap.create () in
  let push_deadline i =
    Option.iter (fun vt -> Heap.push dheap ~at:vt i) deadline.(i)
  in
  Array.iteri (fun i _ -> push_deadline i) deadline;
  let dheap_head () =
    Heap.peek_live dheap ~live:(fun at i ->
        match deadline.(i) with Some vt -> Q.equal vt at | None -> false)
  in
  let dheap_pop () = ignore (Heap.pop dheap) in
  let refresh i =
    deadline.(i) <- drivers.(i).next_vt ();
    push_deadline i
  in
  let poll_all () =
    Array.iteri
      (fun i d ->
        d.poll ();
        refresh i)
      drivers
  in
  let script =
    ref (List.stable_sort (fun (a, _) (b, _) -> Q.compare a b) script)
  in
  (* script hooks can touch any session (forced data rounds, byes), so
     a fired hook invalidates every cached deadline: poll everyone *)
  let fire_due () =
    let fired = ref false in
    let rec go () =
      match !script with
      | (at, f) :: rest when Q.(at <= fab.vnow) ->
        script := rest;
        fired := true;
        f ();
        go ()
      | _ -> ()
    in
    go ();
    if !fired then poll_all ()
  in
  (* one instant: poll exactly the drivers with a due packet or a due
     deadline, in driver-index order (the order the old poll-everyone
     loop used, so the fabric's RNG stream is untouched by the targeted
     wakeups); repeat until the due set stops making progress *)
  let due = Array.make k false in
  let free_drivers =
    Array.to_list
      (Array.mapi (fun i d -> if d.addr = None then Some i else None) drivers)
    |> List.filter_map Fun.id
  in
  let step () =
    fire_due ();
    let rec drain () =
      let due_list = ref [] in
      let mark_due i =
        if not due.(i) then begin
          due.(i) <- true;
          due_list := i :: !due_list
        end
      in
      (* due deadlines: pop live heap entries at or before now (the
         polled drivers' refresh re-pushes whatever deadline remains) *)
      let rec mark_deadlines () =
        match dheap_head () with
        | Some (at, i) when Q.(at <= fab.vnow) ->
          dheap_pop ();
          mark_due i;
          mark_deadlines ()
        | _ -> ()
      in
      mark_deadlines ();
      (* mark the receiver of the due packet at the schedule head; a
         due packet for an address nobody polls is undeliverable —
         discard it so it cannot stall the schedule.  Only the head is
         visible without popping; packets to other destinations due at
         this same instant surface on the next drain round, once the
         head is consumed and its entry goes stale. *)
      let rec mark () =
        match sched_head fab with
        | Some (at, dst) when Q.(at <= fab.vnow) -> (
          match Hashtbl.find_opt by_addr dst with
          | Some i -> mark_due i
          | None ->
            ignore (queue_pop fab dst);
            sched_drop fab;
            mark ())
        | _ -> ()
      in
      mark ();
      (* addressless drivers are always due: we cannot know their mail *)
      List.iter mark_due free_drivers;
      match !due_list with
      | [] -> ()
      | l ->
        let l = List.sort compare l in
        let d0 = fab.delivered in
        List.iter
          (fun i ->
            drivers.(i).poll ();
            refresh i)
          l;
        List.iter (fun i -> due.(i) <- false) l;
        (* progress = a delivery or a timer pushed past now; stop when
           neither can happen anymore *)
        let timers_pending =
          match dheap_head () with
          | Some (at, _) -> Q.(at <= fab.vnow)
          | None -> false
        in
        if fab.delivered > d0 || timers_pending then drain ()
        else if deliverable fab then begin
          (* a due packet survived a poll of its receiver: undeliverable
             in practice; drop it rather than spin *)
          match sched_head fab with
          | Some (_, dst) ->
            ignore (queue_pop fab dst);
            sched_drop fab
          | None -> ()
        end
    in
    drain ()
  in
  let next_deadline_vt () = Option.map fst (dheap_head ()) in
  poll_all ();
  step ();
  let rec go () =
    if Q.(fab.vnow < until) then begin
      let cands = [] in
      let cands =
        match sched_head fab with Some (at, _) -> at :: cands | None -> cands
      in
      let cands =
        match !script with (at, _) :: _ -> at :: cands | [] -> cands
      in
      let cands =
        match next_deadline_vt () with Some a -> a :: cands | None -> cands
      in
      (* a step leaves every timer strictly in the future and every due
         packet/script entry consumed, so filtering keeps us moving *)
      match List.filter (fun a -> Q.(a > fab.vnow)) cands with
      | [] -> fab.vnow <- until
      | fut ->
        fab.vnow <- Q.min until (List.fold_left Q.min (List.hd fut) fut);
        step ();
        go ()
    end
  in
  go ();
  step ()

let run fab ~loops ~until ?script () =
  run_drivers fab ~drivers:(List.map driver_of_loop loops) ~until ?script ()
