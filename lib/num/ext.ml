type t =
  | Fin of Q.t
  | Inf

let zero = Fin Q.zero
let of_int n = Fin (Q.of_int n)

let is_fin = function Fin _ -> true | Inf -> false

let fin_exn = function
  | Fin q -> q
  | Inf -> invalid_arg "Ext.fin_exn: infinite"

let add a b =
  match a, b with
  | Fin x, Fin y -> Fin (Q.add x y)
  | _ -> Inf

let compare a b =
  match a, b with
  | Fin x, Fin y -> Q.compare x y
  | Fin _, Inf -> -1
  | Inf, Fin _ -> 1
  | Inf, Inf -> 0

let equal a b = compare a b = 0

(* direct matches: the order tests in hot loops shouldn't pay for the
   three-way compare when one operand is infinite *)
let lt a b =
  match a, b with
  | Fin x, Fin y -> Q.compare x y < 0
  | Fin _, Inf -> true
  | Inf, _ -> false

let le a b =
  match a, b with
  | Fin x, Fin y -> Q.compare x y <= 0
  | Inf, Fin _ -> false
  | _, Inf -> true

let min a b = if le a b then a else b

let to_string = function
  | Fin q -> Q.to_string q
  | Inf -> "inf"

let pp fmt x = Format.pp_print_string fmt (to_string x)
