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
              (* four hex digits; [int_of_string] would take "0_41" too *)
              let digits = String.sub s (!pos + 1) (min 4 (n - !pos - 1)) in
              let hex = function
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                | _ -> false
              in
              if String.length digits < 4 || not (String.for_all hex digits)
              then fail "bad unicode escape";
              let code = int_of_string ("0x" ^ digits) in
              Buffer.add_char b (if code < 0x80 then Char.chr code else '?');
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
  let rec go indent j =
    let inl = to_inline j in
    let block opening closing items =
      Buffer.add_string buf opening;
      List.iteri
        (fun i (key, v) ->
          Buffer.add_string buf (if i = 0 then "\n" else ",\n");
          Buffer.add_string buf (String.make (indent + 2) ' ' ^ key);
          go (indent + 2) v)
        items;
      Buffer.add_string buf ("\n" ^ String.make indent ' ' ^ closing)
    in
    match j with
    | _ when String.length inl + indent <= inline_width ->
        Buffer.add_string buf inl
    | Arr xs -> block "[" "]" (List.map (fun x -> ("", x)) xs)
    | Obj kvs ->
        let key k = "\"" ^ escape k ^ "\": " in
        block "{" "}" (List.map (fun (k, v) -> (key k, v)) kvs)
    | _ -> Buffer.add_string buf inl
  in
  go 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let load ~path = parse (In_channel.with_open_text path In_channel.input_all)

let save ~path j =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (print j))

(* ------------------------------------------------------------------ *)
(* Codecs.  A decoder gets the jq-style path of the value it decodes
   and raises [Decode_error] at that path; only [decode_file] catches
   it, so no failure escapes as an exception. *)

exception Decode_error of string * string

let fail_at path fmt =
  Printf.ksprintf (fun m -> raise (Decode_error (path, m))) fmt

(* [.a.b[2]], with keys that are not identifiers quoted: [.a["x/y"]]. *)
let key_path path k =
  let ident = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  if k <> "" && String.for_all ident k then
    (if path = "." then "" else path) ^ "." ^ k
  else Printf.sprintf "%s[%S]" path k

type 'a codec = {
  enc : 'a -> t;
  dec : string -> t -> 'a;
  names : string list;  (* object keys declared inside, unsorted *)
}

let encode c x = c.enc x
let field_names c = List.sort_uniq String.compare c.names

let decode_file ~path c =
  let in_file m = path ^ ": " ^ m in
  match c.dec "." (load ~path) with
  | x -> Ok x
  | exception Decode_error (at, m) -> Error (in_file (at ^ ": " ^ m))
  | exception Parse_error m -> Error (in_file m)
  | exception Sys_error m ->
      (* open names the file itself; a failed read does not *)
      Error (if String.starts_with ~prefix:(in_file "") m then m else in_file m)

let refine check back c =
  let dec path v =
    match check (c.dec path v) with Ok x -> x | Error m -> fail_at path "%s" m
  in
  { enc = (fun x -> c.enc (back x)); dec; names = c.names }

let check f c =
  let dec path v =
    let x = c.dec path v in
    match f x with
    | Ok () -> x
    | Error (sub, m) ->
        fail_at (if path = "." && sub <> "" then sub else path ^ sub) "%s" m
  in
  { c with dec }

let leaf what enc get =
  let dec path v =
    match get v with Some x -> x | None -> fail_at path "expected %s" what
  in
  { enc; dec; names = [] }

let string =
  leaf "a string" (fun s -> Str s) (function Str s -> Some s | _ -> None)

let bool =
  leaf "a bool" (fun b -> Bool b) (function Bool b -> Some b | _ -> None)

let int =
  leaf "an integer"
    (fun n -> Num (float_of_int n))
    (function
      | Num f when Float.is_integer f && Float.abs f < 0x1p62 ->
          Some (int_of_float f)
      | _ -> None)

let number =
  refine
    (fun f -> if Float.is_finite f then Ok f else Error "number out of range")
    Fun.id
    (leaf "a number" (fun f -> Num f) (function Num f -> Some f | _ -> None))

let list c =
  let dec path = function
    | Arr xs -> List.mapi (fun i -> c.dec (Printf.sprintf "%s[%d]" path i)) xs
    | _ -> fail_at path "expected an array"
  in
  { enc = (fun xs -> Arr (List.map c.enc xs)); dec; names = c.names }

let nullable c =
  let dec path = function Null -> None | v -> Some (c.dec path v) in
  { enc = Option.fold ~none:Null ~some:c.enc; dec; names = c.names }

let enum what table =
  refine
    (fun s ->
      Option.to_result
        ~none:(Printf.sprintf "unknown %s %S" what s)
        (List.assoc_opt s table))
    (fun x ->
      match List.find_opt (fun (_, y) -> y = x) table with
      | Some (s, _) -> s
      | None -> invalid_arg ("Json.enum: a " ^ what ^ " outside its table"))
    string

(* The members of an object, each key once. *)
let members path = function
  | Obj kvs ->
      ignore
        (List.fold_left
           (fun seen (k, _) ->
             if List.mem k seen then fail_at (key_path path k) "duplicate key"
             else k :: seen)
           [] kvs);
      kvs
  | _ -> fail_at path "expected an object"

let assoc c =
  let dec path v =
    List.map (fun (k, x) -> (k, c.dec (key_path path k) x)) (members path v)
  in
  let enc kvs = Obj (List.map (fun (k, x) -> (k, c.enc x)) kvs) in
  { enc; dec; names = c.names }

(* An object being decoded: its members, and the keys read so far. *)
type state = {
  path : string;
  kvs : (string * t) list;
  mutable used : string list;
}

let lookup st k c =
  List.assoc_opt k st.kvs
  |> Option.map (fun v ->
         st.used <- k :: st.used;
         c.dec (key_path st.path k) v)

let need st k c =
  match lookup st k c with
  | Some x -> x
  | None -> fail_at (key_path st.path k) "missing field"

type ('r, 'k) fields = {
  writers : ('r -> (string * t) option) list;  (* last declared first *)
  tags : (string * string) list;  (* last declared first *)
  build : state -> 'k;
  keys : string list;
}

let record k = { writers = []; tags = []; build = (fun _ -> k); keys = [] }

(* Fields are read last to first, the order OCaml evaluates a record
   literal's fields in: of two bad fields, the later one is reported.
   The decode tables in test/ pin that choice. *)
let add k c write read o =
  let build st =
    let x = read st in
    o.build st x
  in
  let keys = (k :: c.names) @ o.keys in
  { o with writers = write :: o.writers; build; keys }

let field k c get o =
  add k c (fun r -> Some (k, c.enc (get r))) (fun st -> need st k c) o

let optional k c get o =
  let write r = Option.map (fun x -> (k, c.enc x)) (get r) in
  add k c write (fun st -> lookup st k c) o

let const k v o =
  let writers = (fun _ -> Some (k, Str v)) :: o.writers in
  { o with writers; tags = (k, v) :: o.tags; keys = k :: o.keys }

let seal o =
  let dec path v =
    let st = { path; kvs = members path v; used = [] } in
    List.iter
      (fun (k, want) ->
        let got = need st k string in
        if got <> want then
          fail_at (key_path path k) "expected %S, got %S" want got)
      (List.rev o.tags);
    let x = o.build st in
    List.iter
      (fun (k, _) ->
        if not (List.mem k st.used) then fail_at (key_path path k) "unknown key")
      st.kvs;
    x
  in
  let enc r = Obj (List.rev (List.filter_map (fun w -> w r) o.writers)) in
  { enc; dec; names = o.keys }

type 'a case = {
  kind : string;
  write : 'a -> t option;
  read : string -> t -> 'a;
  case_keys : string list;
}

(* A case is its payload's object led by a ["kind"] tag. *)
let case kind o inj proj =
  let tagged =
    seal
      {
        o with
        writers = o.writers @ [ (fun _ -> Some ("kind", Str kind)) ];
        tags = o.tags @ [ ("kind", kind) ];
      }
  in
  let write x = Option.map tagged.enc (proj x) in
  let read path v = inj (tagged.dec path v) in
  { kind; write; read; case_keys = o.keys }

let variant what cases =
  let dec path v =
    let kind = need { path; kvs = members path v; used = [] } "kind" string in
    match List.find_opt (fun c -> String.equal c.kind kind) cases with
    | Some c -> c.read path v
    | None -> fail_at path "unknown %s %S" what kind
  in
  let enc x = Option.get (List.find_map (fun c -> c.write x) cases) in
  { enc; dec; names = "kind" :: List.concat_map (fun c -> c.case_keys) cases }
