type t = { mutable now : float }
