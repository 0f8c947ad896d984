type t = { view : View.t; me : Event.proc; mutable next_seq : int }

let create spec ~me ~lt0 =
  let view = View.create ~n_procs:(System_spec.n spec) in
  View.add view { Event.id = { proc = me; seq = 0 }; lt = lt0; kind = Event.Init };
  { view; me; next_seq = 1 }

let view t = t.view
let last_id t = { Event.proc = t.me; seq = t.next_seq - 1 }

let local_event t ~lt =
  View.add t.view
    { Event.id = { proc = t.me; seq = t.next_seq }; lt; kind = Event.Internal };
  t.next_seq <- t.next_seq + 1

let send t ~(payload : Payload.t) =
  let e = payload.send_event in
  if Event.loc e <> t.me || e.id.seq <> t.next_seq then
    invalid_arg "Mirror.send: unexpected send event";
  View.add t.view e;
  t.next_seq <- t.next_seq + 1

let receive t ~msg ~lt ~(payload : Payload.t) =
  ignore (View.merge_batch t.view payload.events);
  let src = Event.loc payload.send_event in
  View.add t.view
    {
      Event.id = { proc = t.me; seq = t.next_seq };
      lt;
      kind = Event.Recv { msg; src; send = payload.send_event.id };
    };
  t.next_seq <- t.next_seq + 1
