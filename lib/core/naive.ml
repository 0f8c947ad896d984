type t = {
  spec : System_spec.t;
  me : Event.proc;
  view : View.t;
  mutable next_seq : int;
  mutable last_lt : int;
  mutable last_message_size : int;
}

let create spec ~me ~lt0 =
  let view = View.create ~n_procs:(System_spec.n spec) in
  View.add view { Event.id = { proc = me; seq = 0 }; lt = lt0; kind = Event.Init };
  { spec; me; view; next_seq = 1; last_lt = lt0; last_message_size = 0 }

let state_size t = View.size t.view
let last_message_size t = t.last_message_size

let fresh t ~lt kind =
  if lt < t.last_lt then invalid_arg "Naive: local time regression";
  let e = { Event.id = { proc = t.me; seq = t.next_seq }; lt; kind } in
  t.next_seq <- t.next_seq + 1;
  t.last_lt <- lt;
  e


let send t ~dst ~msg ~lt =
  if System_spec.transit t.spec t.me dst = None then
    invalid_arg "Naive.send: no such link";
  let e = fresh t ~lt (Event.Send { msg; dst }) in
  View.add t.view e;
  let events = View.to_list t.view in
  t.last_message_size <- List.length events;
  { Payload.send_event = e; events }

let receive t ~msg ~lt (payload : Payload.t) =
  ignore (View.merge_batch t.view payload.events);
  let recv =
    fresh t ~lt
      (Event.Recv
         {
           msg;
           src = Event.loc payload.send_event;
           send = payload.send_event.id;
         })
  in
  View.add t.view recv

let estimate t =
  Reference.estimate t.spec t.view ~at:{ Event.proc = t.me; seq = t.next_seq - 1 }
