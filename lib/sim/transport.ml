type delay_policy = [ `Uniform | `Min | `Max | `Alternate | `Capped of Q.t ]

type decision =
  | Deliver_at of Q.t
  | Lost of { detect_at : Q.t }

type t = {
  spec : System_spec.t;
  rng : Rng.t;
  delay : delay_policy;
  loss_prob : float;
  detect_delay : Q.t;
  last : (int * int, Q.t) Hashtbl.t; (* directed link -> latest arrival *)
}

let create spec ~rng ~delay ~loss_prob ~detect_delay =
  { spec; rng; delay; loss_prob; detect_delay; last = Hashtbl.create 32 }

let draw_delay t tr ~seq =
  let lo = tr.Transit.lo in
  let hi_or lo_plus =
    match tr.Transit.hi with Ext.Fin h -> h | Ext.Inf -> Q.add lo lo_plus
  in
  match t.delay with
  | `Min -> lo
  | `Max -> hi_or Q.one
  | `Alternate -> if seq mod 2 = 0 then lo else hi_or Q.one
  | `Uniform -> Rng.q_between t.rng lo (hi_or Q.one)
  | `Capped cap ->
    let hi =
      match tr.Transit.hi with
      | Ext.Fin h -> Q.min h (Q.add lo cap)
      | Ext.Inf -> Q.add lo cap
    in
    Rng.q_between t.rng lo hi

let send t ~now ~seq ~src ~dst =
  if Rng.bernoulli t.rng ~p:t.loss_prob then
    Lost { detect_at = Q.add now t.detect_delay }
  else begin
    let tr = System_spec.transit_exn t.spec src dst in
    let at = Q.add now (draw_delay t tr ~seq) in
    let at =
      match Hashtbl.find_opt t.last (src, dst) with
      | Some prev -> Q.max at prev
      | None -> at
    in
    Hashtbl.replace t.last (src, dst) at;
    Deliver_at at
  end
