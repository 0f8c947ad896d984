type t = { send_event : Event.t; events : Event.t list }

let size t = List.length t.events

let pp fmt t =
  Format.fprintf fmt "@[<v>payload (%d events):" (size t);
  List.iter (fun e -> Format.fprintf fmt "@,  %a" Event.pp e) t.events;
  Format.fprintf fmt "@]"
