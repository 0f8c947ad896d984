
exception Negative_cycle

(* Queue-based Bellman-Ford (SPFA) with a relaxation-count cutoff for
   negative-cycle detection.  Exact rational weights. *)
let sssp g src =
  let n = Digraph.n g in
  let dist = Array.make n Ext.Inf in
  let times_relaxed = Array.make n 0 in
  let in_queue = Array.make n false in
  let queue = Queue.create () in
  dist.(src) <- Ext.zero;
  Queue.push src queue;
  in_queue.(src) <- true;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    in_queue.(u) <- false;
    let du = dist.(u) in
    List.iter
      (fun (v, w) ->
        let cand = Ext.add du (Ext.Fin w) in
        if Ext.lt cand dist.(v) then begin
          dist.(v) <- cand;
          times_relaxed.(v) <- times_relaxed.(v) + 1;
          if times_relaxed.(v) > n then raise Negative_cycle;
          if not in_queue.(v) then begin
            Queue.push v queue;
            in_queue.(v) <- true
          end
        end)
      (Digraph.succ g u)
  done;
  dist
