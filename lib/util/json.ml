type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let pstring () =
    expect '"';
    let b = Buffer.create 16 in
    let finished = ref false in
    while not !finished do
      if !pos >= n then fail "unterminated string";
      (match s.[!pos] with
      | '"' -> finished := true
      | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad unicode escape";
              (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
              | Some _ -> Buffer.add_char b '?'
              | None -> fail "bad unicode escape");
              pos := !pos + 4
          | _ -> fail "bad escape")
      | c -> Buffer.add_char b c);
      incr pos
    done;
    Buffer.contents b
  in
  let pnumber () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> pobj ()
    | Some '[' -> parr ()
    | Some '"' -> Str (pstring ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> pnumber ()
    | _ -> fail "unexpected character"
  and pobj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let fields = ref [] in
      let continue_ = ref true in
      while !continue_ do
        skip_ws ();
        let k = pstring () in
        expect ':';
        let v = value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
            incr pos;
            continue_ := false
        | _ -> fail "expected ',' or '}'"
      done;
      Obj (List.rev !fields)
    end
  and parr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else begin
      let items = ref [] in
      let continue_ = ref true in
      while !continue_ do
        items := value () :: !items;
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
            incr pos;
            continue_ := false
        | _ -> fail "expected ',' or ']'"
      done;
      Arr (List.rev !items)
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest representation that parses back to the same float: whole
   numbers without a fraction, then 6 / 12 significant digits, falling
   back to the 17 digits that always round-trip. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let try_fmt fmt =
      let s = Printf.sprintf fmt f in
      if float_of_string s = f then Some s else None
    in
    match try_fmt "%.6g" with
    | Some s -> s
    | None -> (
        match try_fmt "%.12g" with
        | Some s -> s
        | None -> Printf.sprintf "%.17g" f)

let num_str f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    invalid_arg "Json.print: non-finite number"
  else float_str f

let rec to_inline = function
  | Null -> "null"
  | Bool true -> "true"
  | Bool false -> "false"
  | Num f -> num_str f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr [] -> "[]"
  | Arr xs -> "[" ^ String.concat ", " (List.map to_inline xs) ^ "]"
  | Obj [] -> "{}"
  | Obj kvs ->
      "{ "
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_inline v)
             kvs)
      ^ " }"

let inline_width = 76

let print j =
  let buf = Buffer.create 256 in
  let pad indent = Buffer.add_string buf (String.make indent ' ') in
  let rec go indent j =
    let inl = to_inline j in
    if String.length inl + indent <= inline_width then
      Buffer.add_string buf inl
    else
      match j with
      | Arr xs ->
          Buffer.add_string buf "[\n";
          List.iteri
            (fun i x ->
              pad (indent + 2);
              go (indent + 2) x;
              if i < List.length xs - 1 then Buffer.add_char buf ',';
              Buffer.add_char buf '\n')
            xs;
          pad indent;
          Buffer.add_char buf ']'
      | Obj kvs ->
          Buffer.add_string buf "{\n";
          List.iteri
            (fun i (k, v) ->
              pad (indent + 2);
              Buffer.add_string buf ("\"" ^ escape k ^ "\": ");
              go (indent + 2) v;
              if i < List.length kvs - 1 then Buffer.add_char buf ',';
              Buffer.add_char buf '\n')
            kvs;
          pad indent;
          Buffer.add_char buf '}'
      | _ -> Buffer.add_string buf inl
  in
  go 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f < 0x1p62 -> Some (int_of_float f)
  | _ -> None

let load ~path = parse (In_channel.with_open_text path In_channel.input_all)

let save ~path j =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (print j))

(* ------------------------------------------------------------------ *)
(* Strict decoding.  A reader gets the jq-style path of the value it
   decodes and raises [Decode_error] at that path; only [decode] and
   [decode_file] catch it, so no failure escapes as an exception. *)

exception Decode_error of string * string

type 'a reader = string -> t -> 'a

type obj = {
  path : string;
  fields : (string * t) list;
  mutable used : string list;
}

let fail_at path fmt =
  Printf.ksprintf (fun m -> raise (Decode_error (path, m))) fmt

let fail o fmt = fail_at o.path fmt

(* [.a.b[2]], with keys that are not identifiers quoted: [.a["x/y"]]. *)
let key_path path k =
  let ident = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  if k <> "" && String.for_all ident k then
    (if path = "." then "" else path) ^ "." ^ k
  else Printf.sprintf "%s[%S]" path k

let string path = function Str s -> s | _ -> fail_at path "expected a string"
let number path = function Num f -> f | _ -> fail_at path "expected a number"
let bool path = function Bool b -> b | _ -> fail_at path "expected a bool"

let int path v =
  match to_int v with Some n -> n | None -> fail_at path "expected an integer"

let list r path = function
  | Arr xs -> List.mapi (fun i x -> r (Printf.sprintf "%s[%d]" path i) x) xs
  | _ -> fail_at path "expected an array"

let nullable r path = function Null -> None | v -> Some (r path v)

let refine f r path v =
  match f (r path v) with Ok x -> x | Error m -> fail_at path "%s" m

let exactly want =
  refine
    (fun s ->
      if String.equal s want then Ok s
      else Error (Printf.sprintf "expected %S, got %S" want s))
    string

let enum what of_name =
  refine
    (fun s ->
      Option.to_result
        ~none:(Printf.sprintf "unknown %s %S" what s)
        (of_name s))
    string

let fields path = function
  | Obj kvs ->
      ignore
        (List.fold_left
           (fun seen (k, _) ->
             if List.mem k seen then fail_at (key_path path k) "duplicate key"
             else k :: seen)
           [] kvs);
      kvs
  | _ -> fail_at path "expected an object"

let assoc r path v =
  List.map (fun (k, x) -> (k, r (key_path path k) x)) (fields path v)

let obj f path v =
  let o = { path; fields = fields path v; used = [] } in
  let x = f o in
  List.iter
    (fun (k, _) ->
      if not (List.mem k o.used) then fail_at (key_path path k) "unknown key")
    o.fields;
  x

let opt o k r =
  match List.assoc_opt k o.fields with
  | None -> None
  | Some v ->
      o.used <- k :: o.used;
      Some (r (key_path o.path k) v)

let req o k r =
  match opt o k r with
  | Some x -> x
  | None -> fail_at (key_path o.path k) "missing field"

let decode r j =
  match r "." j with
  | x -> Ok x
  | exception Decode_error (path, m) -> Error (path ^ ": " ^ m)

let decode_file ~path r =
  let in_file m = path ^ ": " ^ m in
  match load ~path with
  | j -> Result.map_error in_file (decode r j)
  | exception Parse_error m -> Error (in_file m)
  | exception Sys_error m ->
      (* open names the file itself; a failed read does not *)
      Error (if String.starts_with ~prefix:(in_file "") m then m else in_file m)
