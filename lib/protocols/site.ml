type role = Master_role | Slave_role of { vote_yes : bool }

module type S = sig
  val name : string

  val blocking_by_design : bool

  type t

  val create : Ctx.t -> role -> t

  val begin_transaction : t -> unit

  val on_delivery : t -> Types.msg Network.delivery -> unit

  val state_name : t -> string
end

type packed = (module S)

let name (module P : S) = P.name
