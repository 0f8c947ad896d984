
type t = {
  size : int;
  adj : (int, Q.t) Hashtbl.t array; (* adj.(u) : dst -> min weight *)
}

let create size = { size; adj = Array.init size (fun _ -> Hashtbl.create 4) }
let n g = g.size

let add_edge g u v w =
  if u < 0 || u >= g.size || v < 0 || v >= g.size then
    invalid_arg "Digraph.add_edge: node out of range";
  match Hashtbl.find_opt g.adj.(u) v with
  | Some w0 when Q.(w0 <= w) -> ()
  | _ -> Hashtbl.replace g.adj.(u) v w

let succ g u = Hashtbl.fold (fun v w acc -> (v, w) :: acc) g.adj.(u) []

let edges g =
  let acc = ref [] in
  for u = g.size - 1 downto 0 do
    Hashtbl.iter (fun v w -> acc := (u, v, w) :: !acc) g.adj.(u)
  done;
  !acc

let edge_count g =
  Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 g.adj

let reverse g =
  let r = create g.size in
  for u = 0 to g.size - 1 do
    Hashtbl.iter (fun v w -> add_edge r v u w) g.adj.(u)
  done;
  r
