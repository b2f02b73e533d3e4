let kib n = n * 1024
let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024

let pp_bytes fmt n =
  let f = Float.of_int n in
  if n < 1024 then Format.fprintf fmt "%d B" n
  else if n < 1024 * 1024 then Format.fprintf fmt "%.1f KiB" (f /. 1024.0)
  else if n < 1024 * 1024 * 1024 then
    Format.fprintf fmt "%.1f MiB" (f /. 1048576.0)
  else Format.fprintf fmt "%.1f GiB" (f /. 1073741824.0)

let pp_seconds fmt s =
  if s < 1e-6 then Format.fprintf fmt "%.0f ns" (s *. 1e9)
  else if s < 1e-3 then Format.fprintf fmt "%.2f us" (s *. 1e6)
  else if s < 1.0 then Format.fprintf fmt "%.2f ms" (s *. 1e3)
  else Format.fprintf fmt "%.2f s" s

let pp_rate fmt r =
  if r >= 1e6 then Format.fprintf fmt "%.2f Mops/s" (r /. 1e6)
  else if r >= 1e3 then Format.fprintf fmt "%.2f Kops/s" (r /. 1e3)
  else Format.fprintf fmt "%.2f ops/s" r
