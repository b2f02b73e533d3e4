type access_path = Path_local | Path_cache of Gaddr.t | Path_fetch
type write_kind = W_bump | W_move | W_in_place

type event =
  | Create of { g : Gaddr.t; size : int }
  | Read of { g : Gaddr.t; path : access_path }
  | Write of { before : Gaddr.t; after : Gaddr.t; size : int; kind : write_kind }
  | Borrow_imm of { g : Gaddr.t }
  | Return_imm of { g : Gaddr.t }
  | Borrow_mut of { g : Gaddr.t }
  | Return_mut of { g : Gaddr.t }
  | Transfer of { g : Gaddr.t; to_node : int }
  | Drop of { g : Gaddr.t }
  | App of { g : Gaddr.t; verb : string; tag : string }
  | Cache_hit of { key : Gaddr.t }
  | Cache_stale_miss of { sought : Gaddr.t; cached : Gaddr.t }
  | Cache_insert of { key : Gaddr.t; size : int }
  | Cache_release of { key : Gaddr.t; refcount : int }
  | Cache_invalidate of { key : Gaddr.t }
  | Rc_created of { g : Gaddr.t; size : int; count : int }
  | Rc_retained of { g : Gaddr.t; count : int }
  | Rc_released of { g : Gaddr.t; count : int }
  | Rc_freed of { g : Gaddr.t }
  | Lock_created of { g : Gaddr.t }
  | Lock_acquired of { g : Gaddr.t; thread : int }
  | Lock_released of { g : Gaddr.t; thread : int }
  | Node_failed of { node : int }
  | Promoted of { home : int; by : int; replica : int }
  | View_change of { epoch : int; reason : string }
  | Handoff_prepared of { home : int; from_node : int; to_node : int }
  | Handoff_committed of {
      home : int;
      from_node : int;
      to_node : int;
      epoch : int;
    }
  | Handoff_aborted of {
      home : int;
      from_node : int;
      to_node : int;
      reason : string;
    }
  | Chain_reseeded of { home : int; server : int; hosts : int list }

type subscriber = node:int -> thread:int -> event -> unit
type t = { mutable sub : subscriber option }

let create () = { sub = None }
let set t s = t.sub <- s
