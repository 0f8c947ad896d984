
type t = { lo : Q.t; hi : Ext.t }

let make ~lo ~hi =
  if Q.sign lo < 0 then invalid_arg "Transit.make: negative lower bound";
  if Ext.lt hi (Ext.Fin lo) then invalid_arg "Transit.make: hi < lo";
  { lo; hi }

let of_q lo hi = make ~lo ~hi:(Ext.Fin hi)
let asynchronous = { lo = Q.zero; hi = Ext.Inf }
let exact d = make ~lo:d ~hi:(Ext.Fin d)
let widen q t = { lo = Q.sub t.lo q; hi = Ext.add t.hi (Ext.Fin q) }
let equal a b = Q.(a.lo = b.lo) && Ext.equal a.hi b.hi
