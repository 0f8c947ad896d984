type 'a entry = { at : Q.t; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }
let is_empty t = t.size = 0
let size t = t.size

let before a b =
  let c = Q.compare a.at b.at in
  if c <> 0 then c < 0 else a.seq < b.seq

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && before t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~at payload =
  let entry = { at; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.data then begin
    let cap = max 16 (2 * Array.length t.data) in
    let data = Array.make cap entry in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (top.at, top.payload)
  end

let peek t =
  if t.size = 0 then None else Some (t.data.(0).at, t.data.(0).payload)

let rec peek_live t ~live =
  match peek t with
  | Some (at, x) when not (live at x) ->
    ignore (pop t);
    peek_live t ~live
  | top -> top
