(* Quickstart: three processors on a line, driven by hand through the
   public API — no simulator.

      p0 (source) --- p1 --- p2

   p0's clock IS real time; p1 and p2 drift up to 100 ppm; every link
   delivers within [1, 5] time units.  We exchange a few messages and
   print each node's guaranteed interval for the source time.

   Run with:  dune exec examples/quickstart.exe *)

let q = Q.of_int

(* a local reading of [n] seconds, in ticks *)
let secs n = n * System_spec.ticks_per_second

let spec =
  System_spec.uniform ~n:3 ~source:0
    ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (q 1) (q 5))
    ~links:[ (0, 1); (1, 2) ]

let show name csa =
  Format.printf "  %s (p%d, local %s): source time in %s@." name (Csa.me csa)
    (Q.to_string (System_spec.q_of_ticks (Csa.last_lt csa)))
    (Interval.to_string_approx (Csa.estimate csa))

let () =
  Format.printf "== quickstart: optimal clock synchronization ==@.@.";
  (* boot the three synchronization layers *)
  let p0 = Csa.create spec ~me:0 ~lt0:0 in
  let p1 = Csa.create spec ~me:1 ~lt0:0 in
  let p2 = Csa.create spec ~me:2 ~lt0:0 in
  Format.printf "before any message:@.";
  show "source " p0;
  show "relay  " p1;
  show "leaf   " p2;

  (* The application decides when and what to send; the CSA piggybacks its
     payload.  Message ids must be globally unique. *)
  Format.printf "@.p0 sends m1 at local time 10; p1 receives it at 13:@.";
  let m1 = Csa.send p0 ~dst:1 ~msg:1 ~lt:(secs 10) in
  Csa.receive p1 ~msg:1 ~lt:(secs 13) m1;
  show "relay  " p1;

  Format.printf "@.p1 relays to p2 (m2, sent 14, received 20):@.";
  let m2 = Csa.send p1 ~dst:2 ~msg:2 ~lt:(secs 14) in
  Csa.receive p2 ~msg:2 ~lt:(secs 20) m2;
  show "leaf   " p2;

  Format.printf "@.p2 answers p1 (m3, sent 21, received 24): the reply's@.";
  Format.printf "upper transit bound tightens p1 from the other side:@.";
  let m3 = Csa.send p2 ~dst:1 ~msg:3 ~lt:(secs 21) in
  Csa.receive p1 ~msg:3 ~lt:(secs 24) m3;
  show "relay  " p1;

  (* estimates widen between events, by exactly the optimal drift slack *)
  Format.printf "@.the same relay 100 local units later (no traffic):@.";
  Format.printf "  relay   (p1, local 124): source time in %s@."
    (Interval.to_string_approx (Csa.estimate_at p1 ~lt:(secs 124)));

  (* resource accounting: the whole point of the paper is that this state
     stays bounded no matter how long the execution runs *)
  Format.printf "@.state kept by p1: %d live points, %d history entries@."
    (Csa.live_count p1) (Csa.history_size p1);
  Format.printf "done.@."
