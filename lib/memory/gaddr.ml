type t = int

let color_bits = 16
let node_bits = 7
let offset_bits = 40

let max_color = (1 lsl color_bits) - 1
let max_nodes = 1 lsl node_bits
let max_offset = (1 lsl offset_bits) - 1

let node_shift = offset_bits
let color_shift = offset_bits + node_bits

let offset_mask = (1 lsl offset_bits) - 1
let node_mask = (1 lsl node_bits) - 1
let color_mask = (1 lsl color_bits) - 1

exception Color_overflow of t

let make ~node ~offset =
  if node < 0 || node >= max_nodes then
    invalid_arg (Printf.sprintf "Gaddr.make: node %d out of range" node);
  if offset < 0 || offset > max_offset then
    invalid_arg (Printf.sprintf "Gaddr.make: offset %d out of range" offset);
  (node lsl node_shift) lor offset

let node_of a = (a lsr node_shift) land node_mask
let offset_of a = a land offset_mask
let color_of a = (a lsr color_shift) land color_mask

let with_color a c =
  if c < 0 || c > max_color then
    invalid_arg (Printf.sprintf "Gaddr.with_color: color %d out of range" c);
  a land lnot (color_mask lsl color_shift) lor (c lsl color_shift)

let clear_color a = a land lnot (color_mask lsl color_shift)

let bump_color a =
  let c = color_of a in
  if c >= max_color then raise (Color_overflow a);
  with_color a (c + 1)


let to_int a = a

let of_int_exn i =
  if i < 0 || i lsr (color_shift + color_bits) <> 0 then
    invalid_arg "Gaddr.of_int_exn: out of range";
  i

let equal = Int.equal
let compare = Int.compare

(* An address is already a well-mixed non-negative int (node | offset |
   color packed by [make]); hashing it through the polymorphic
   [Hashtbl.hash] would tie the value to the runtime's representation
   choices for no benefit.  The identity is deterministic by
   construction. *)

let pp fmt a =
  Format.fprintf fmt "g[n%d+0x%x c%d]" (node_of a) (offset_of a) (color_of a)
