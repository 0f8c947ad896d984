
exception Negative_cycle

let run d =
  let n = Array.length d in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = d.(i).(k) in
      if Ext.is_fin dik then
        for j = 0 to n - 1 do
          let cand = Ext.add dik d.(k).(j) in
          if Ext.lt cand d.(i).(j) then d.(i).(j) <- cand
        done
    done
  done;
  for i = 0 to n - 1 do
    if Ext.lt d.(i).(i) Ext.zero then raise Negative_cycle
  done;
  d

let apsp g =
  let n = Digraph.n g in
  let d = Array.make_matrix n n Ext.Inf in
  for i = 0 to n - 1 do
    d.(i).(i) <- Ext.zero
  done;
  List.iter
    (fun (u, v, w) ->
      let w = Ext.Fin w in
      if Ext.lt w d.(u).(v) then d.(u).(v) <- w)
    (Digraph.edges g);
  run d
