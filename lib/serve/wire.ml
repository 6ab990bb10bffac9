(** The Tkr_serve wire protocol: length-prefixed JSON frames.

    Every message is one frame: a 4-byte big-endian payload length
    followed by that many bytes of JSON.  Values round-trip exactly —
    floats travel as hexadecimal literals ([%h]) so a cached result is
    byte-identical to a fresh one and the client renders the same text
    the server-side engine would. *)

open Tkr_relation
module Json = Tkr_obs.Json
module Table = Tkr_engine.Table
module Batch = Tkr_engine.Batch

exception Protocol_error of string

let max_frame = 256 * 1024 * 1024
(** Hard frame cap (256 MiB): anything larger is a protocol error, not an
    allocation attempt. *)

(* ---- frame I/O ---- *)

let really_write fd (buf : Bytes.t) =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd buf !off (len - !off) in
    if n = 0 then raise (Protocol_error "short write");
    off := !off + n
  done

let read_chunk = 64 * 1024

(* Read exactly [len] bytes, at most [read_chunk] per read.  The buffer
   starts at one chunk and doubles only as bytes arrive, so a peer that
   announces a large frame and stalls pins memory in proportion to what
   it sent, not to the announced length; a frame of at most one chunk
   costs one allocation of its own size.  EOF before the first byte is a
   clean close ([None]); EOF later is a protocol error. *)
let really_read fd len : Bytes.t option =
  let buf = ref (Bytes.create (min len read_chunk)) in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < len do
    if !off = Bytes.length !buf then (
      let grown = Bytes.create (min len (2 * !off)) in
      Bytes.blit !buf 0 grown 0 !off;
      buf := grown);
    let want = min read_chunk (Bytes.length !buf - !off) in
    match Unix.read fd !buf !off want with
    | 0 -> eof := true
    | n -> off := !off + n
  done;
  if !off = len then Some !buf
  else if !off = 0 then None
  else raise (Protocol_error "truncated frame")

let write_frame fd (payload : string) =
  let n = String.length payload in
  if n > max_frame then raise (Protocol_error "frame too large");
  let buf = Bytes.create (4 + n) in
  Bytes.set_int32_be buf 0 (Int32.of_int n);
  Bytes.blit_string payload 0 buf 4 n;
  really_write fd buf

let read_frame fd : string option =
  match really_read fd 4 with
  | None -> None
  | Some hdr ->
      let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if n < 0 || n > max_frame then
        raise (Protocol_error (Printf.sprintf "bad frame length %d" n));
      (match really_read fd n with
      (* [body] is exactly [n] bytes and never escapes: no copy needed *)
      | Some body -> Some (Bytes.unsafe_to_string body)
      | None -> raise (Protocol_error "truncated frame"))

(* ---- values and tables ---- *)

let ty_to_string = function
  | Value.TBool -> "bool"
  | Value.TInt -> "int"
  | Value.TFloat -> "float"
  | Value.TStr -> "text"

let ty_of_string = function
  | "bool" -> Value.TBool
  | "int" -> Value.TInt
  | "float" -> Value.TFloat
  | "text" -> Value.TStr
  | s -> raise (Protocol_error ("unknown column type " ^ s))

(* floats as [%h] hex literals: exact bit-level round-trip, so rendering
   client-side reproduces the server's bytes.  This is the primitive
   [Printf.sprintf "%h"] calls, minus the format interpretation. *)
external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

let add_float buf f =
  Buffer.add_string buf {|{"f":"|};
  Buffer.add_string buf (hexstring_of_float f (-6) '-');
  Buffer.add_string buf {|"}|}

let add_bool buf b = Buffer.add_string buf (if b then "true" else "false")

let add_value buf : Value.t -> unit = function
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Bool b -> add_bool buf b
  | Value.Int i -> Json.add_int buf i
  | Value.Str s -> Json.add_string buf s
  | Value.Float f -> add_float buf f

(* cell [i] of a column, read from its element type: no cell is boxed
   unless the column is *)
let add_cell buf (c : Batch.col) i =
  if match c.nulls with Some m -> m.(i) | None -> false then
    Buffer.add_string buf "null"
  else
    match c.data with
    | Batch.Ints a -> Json.add_int buf a.(i)
    | Strs a -> Json.add_string buf a.(i)
    | Floats a -> add_float buf a.(i)
    | Bools a -> add_bool buf a.(i)
    | Boxed a -> add_value buf a.(i)

(* {"kind":"rows","schema":[["name","ty"],...],"rows":[[v,...],...]},
   the rows read from the table's columnar image *)
let add_table buf (t : Table.t) =
  Buffer.add_string buf {|{"kind":"rows","schema":[|};
  List.iteri
    (fun i (a : Schema.attr) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      Json.add_string buf a.name;
      Buffer.add_char buf ',';
      Json.add_string buf (ty_to_string a.ty);
      Buffer.add_char buf ']')
    (Schema.attrs (Table.schema t));
  Buffer.add_string buf {|],"rows":[|};
  let b = Table.columnar t in
  let cols = b.Batch.cols in
  for i = 0 to b.Batch.nrows - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_char buf '[';
    for j = 0 to Array.length cols - 1 do
      if j > 0 then Buffer.add_char buf ',';
      add_cell buf cols.(j) i
    done;
    Buffer.add_char buf ']'
  done;
  Buffer.add_string buf "]}"

module Scan = Json.Scan

(* {"f":"<%h>"}, in any form [Scan] accepts *)
let hex_float c =
  Scan.expect c '{';
  if Scan.string c <> "f" then raise (Protocol_error "bad value");
  Scan.expect c ':';
  let h = Scan.string c in
  Scan.expect c '}';
  match float_of_string h with
  | f -> f
  | exception Failure _ -> raise (Protocol_error ("bad float literal " ^ h))

let int_value i = Value.Int i
let float_value f = Value.Float f  (* lenient: hand-written clients *)

let scan_value c : Value.t =
  match Scan.peek c with
  | 'n' -> Scan.null c; Value.Null
  | 't' | 'f' -> Value.Bool (Scan.bool c)
  | '"' -> Value.Str (Scan.string c)
  | '{' -> Value.Float (hex_float c)
  | '-' | '0' .. '9' -> Scan.number c ~int:int_value ~float:float_value
  | _ -> raise (Protocol_error "bad value")

let scan_schema c : Schema.t =
  let attrs = ref [] in
  Scan.elements c (fun () ->
      Scan.expect c '[';
      let name = Scan.string c in
      Scan.expect c ',';
      let ty = ty_of_string (Scan.string c) in
      Scan.expect c ']';
      attrs := Schema.attr name ty :: !attrs);
  Schema.make (List.rev !attrs)

(* A column being decoded.  Its cells go into chunks: the current one
   doubles from 16 rows up to [chunk_rows], the largest array the minor
   heap takes, and a full one is set aside for a fresh one.  So a large
   result makes one array per column in the major heap, the final
   copy.  The column starts as the element type the schema declares and
   turns [Boxed], every chunk of it, at the first cell that does not fit
   that type. *)
type builder = {
  mutable data : Batch.data;  (* the current chunk *)
  mutable nulls : bool array option;  (* its validity mask, once a cell is NULL *)
  mutable full : Batch.col list;  (* the full chunks, last first *)
}

let chunk_rows = 256

let capacity : Batch.data -> int = function
  | Ints a -> Array.length a
  | Floats a -> Array.length a
  | Bools a -> Array.length a
  | Strs a -> Array.length a
  | Boxed a -> Array.length a

let blank (ty : Value.ty) cap : Batch.data =
  match ty with
  | Value.TInt -> Ints (Array.make cap 0)
  | TFloat -> Floats (Array.create_float cap)
  | TBool -> Bools (Array.make cap false)
  | TStr -> Strs (Array.make cap "")

(* empty data of [d]'s element type *)
let blank_like (d : Batch.data) cap = Batch.blank_data [| { data = d; nulls = None } |] cap

(* [len] cells of [src] from [soff] into [dst] (of the same element
   type) from [doff] *)
let blit_data (src : Batch.data) soff (dst : Batch.data) doff len =
  match (src, dst) with
  | Ints a, Ints o -> Array.blit a soff o doff len
  | Floats a, Floats o -> Array.blit a soff o doff len
  | Bools a, Bools o -> Array.blit a soff o doff len
  | Strs a, Strs o -> Array.blit a soff o doff len
  | Boxed a, Boxed o -> Array.blit a soff o doff len
  | _ -> invalid_arg "Wire.blit_data"

(* the current chunk's first [n] cells in arrays of length [cap] *)
let resize (b : builder) n cap =
  let d = blank_like b.data cap in
  blit_data b.data 0 d 0 n;
  b.data <- d;
  b.nulls <-
    Option.map
      (fun m ->
        let out = Array.make cap false in
        Array.blit m 0 out 0 n;
        out)
      b.nulls

let set_null (b : builder) r =
  match b.data with
  | Batch.Boxed a -> a.(r) <- Value.Null
  | data ->
      let m =
        match b.nulls with
        | Some m -> m
        | None ->
            let m = Array.make (capacity data) false in
            b.nulls <- Some m;
            m
      in
      m.(r) <- true

(* the first [n] cells of a chunk, boxed *)
let boxed (c : Batch.col) n : Batch.col =
  {
    data =
      Boxed (Array.init (capacity c.data) (fun i -> if i < n then Batch.value c i else Value.Null));
    nulls = None;
  }

(* cell [r] of the current chunk, [v], which turns the column [Boxed]:
   the cells before it box as they decoded *)
let set_boxed (b : builder) r (v : Value.t) =
  (match b.data with
  | Batch.Boxed _ -> ()
  | data ->
      let c = boxed { data; nulls = b.nulls } r in
      b.data <- c.data;
      b.nulls <- None;
      b.full <- List.map (fun (c : Batch.col) -> boxed c (capacity c.data)) b.full);
  match b.data with Batch.Boxed a -> a.(r) <- v | _ -> ()

(* the column of [n] rows: the current chunk's first [n] cells, after
   the full chunks *)
let finish (b : builder) n : Batch.col =
  match b.full with
  | [] ->
      if n < capacity b.data then resize b n n;
      { data = b.data; nulls = b.nulls }
  | full ->
      let parts =
        List.rev
          (({ Batch.data = b.data; nulls = b.nulls }, n)
          :: List.map (fun (c : Batch.col) -> (c, chunk_rows)) full)
      in
      let total = List.fold_left (fun acc (_, k) -> acc + k) 0 parts in
      let data = blank_like b.data total in
      let nulls =
        if List.for_all (fun ((c : Batch.col), _) -> c.nulls = None) parts then None
        else Some (Array.make total false)
      in
      ignore
        (List.fold_left
           (fun off ((c : Batch.col), k) ->
             blit_data c.data 0 data off k;
             (match (c.nulls, nulls) with
             | Some m, Some out -> Array.blit m 0 out off k
             | _ -> ());
             off + k)
           0 parts);
      { data; nulls }

exception Not_int of float

let not_int f = raise (Not_int f)

(* cell [r] of a column's current chunk, by the [Scan] readers: a cell
   of the column's element type is stored unboxed; any other value boxes
   the column.  The general reader: [scan_columns] reads the forms the
   encoder writes itself, and hands every other cell here. *)
let scan_cell c (b : builder) r =
  match (b.data, Scan.peek c) with
  | _, 'n' ->
      Scan.null c;
      set_null b r
  | Batch.Ints a, ('-' | '0' .. '9') -> (
      match Scan.number c ~int:Fun.id ~float:not_int with
      | i -> a.(r) <- i
      | exception Not_int f -> set_boxed b r (Value.Float f))
  | Floats a, '{' -> a.(r) <- hex_float c
  | Bools a, ('t' | 'f') -> a.(r) <- Scan.bool c
  | Strs a, '"' -> a.(r) <- Scan.string c
  | Boxed a, _ -> a.(r) <- scan_value c
  | _ -> (
      match (scan_value c, b.data) with
      | Value.Float f, Floats a -> a.(r) <- f
      | v, _ -> set_boxed b r v)

let ragged () = raise (Protocol_error "row width differs from the schema")

(* byte [k] of [s], of length [len], is [ch] *)
let[@inline] at s len k ch = k < len && String.unsafe_get s k = ch

(* [lit] occurs in [s], of length [len], from byte [k] *)
let occurs s len k lit =
  let n = String.length lit in
  k + n <= len
  &&
  let j = ref 0 in
  while !j < n && String.unsafe_get s (k + !j) = String.unsafe_get lit !j do
    incr j
  done;
  !j = n

(* A float cell from byte [i] of [s] in the form [add_float] writes a
   normal float or a zero, [{"f":"-0x1.<h>p-<d>"}] with 1 to 13 hex
   digits [h] or none (and no '.'), into [a.(r)]; the index past it, or
   [-1] for any other form (a subnormal, a non-finite float, a blank, an
   escape), with nothing stored.  The mantissa is exact in 53 bits and
   the exponent keeps it normal, so [Float.ldexp] makes exactly the
   float [float_of_string] reads from the text. *)
let float_cell s len i (a : float array) r =
  let neg = at s len (i + 6) '-' in
  let e = if neg then i + 7 else i + 6 in
  (* the digit before the point: 1 for a normal float, 0 for a zero *)
  if
    not
      (occurs s len i {|{"f":"|}
      && occurs s len e "0x"
      && (at s len (e + 2) '0' || at s len (e + 2) '1'))
  then -1
  else begin
    let normal = at s len (e + 2) '1' in
    let e = ref (e + 3) and mant = ref 0 in
    let digits = ref 0 and point = ref false in
    if at s len !e '.' then begin
      point := true;
      incr e;
      let more = ref true in
      while !more && !e < len do
        match String.unsafe_get s !e with
        | ('0' .. '9' | 'a' .. 'f') as d ->
            let h = if d <= '9' then Char.code d - 48 else Char.code d - 87 in
            mant := (!mant lsl 4) lor h;
            incr digits;
            incr e
        | _ -> more := false
      done
    end;
    if
      (!point && (!digits = 0 || !digits > 13))
      || not (at s len !e 'p' && (at s len (!e + 1) '+' || at s len (!e + 1) '-'))
    then -1
    else begin
      let xneg = at s len (!e + 1) '-' in
      e := !e + 2;
      (* up to 5 exponent digits; a sixth leaves the cell to [scan_cell] *)
      let x0 = !e and x = ref 0 in
      while
        !e < len && !e - x0 < 5
        && String.unsafe_get s !e >= '0'
        && String.unsafe_get s !e <= '9'
      do
        x := (!x * 10) + Char.code (String.unsafe_get s !e) - 48;
        incr e
      done;
      let x = if xneg then - !x else !x in
      if !e = x0 || not (occurs s len !e {|"}|}) then -1
      else if normal && x >= -1022 && x <= 1023 then begin
        let m = (1 lsl 52) lor (!mant lsl (4 * (13 - !digits))) in
        let f = Float.ldexp (Float.of_int m) (x - 52) in
        a.(r) <- (if neg then -.f else f);
        !e + 2
      end
      else if (not normal) && not !point then begin
        a.(r) <- (if neg then -0. else 0.);
        !e + 2
      end
      else -1
    end
  end

(* One cell from byte [i] of [s] (of length [len]) into row [r] of
   [b]'s current chunk, in the form [add_cell] writes it: the index past
   it, or [-1] for any other form, with nothing stored *)
let fast_cell s len i (b : builder) r =
  if i >= len then -1
  else
    match String.unsafe_get s i with
    | 'n' ->
        if occurs s len i "null" then begin
          set_null b r;
          i + 4
        end
        else -1
    | ch -> (
        match b.data with
        | Batch.Ints a ->
            (* at most 18 digits, so in the int range; a longer int goes to
               [scan_cell] *)
            let neg = ch = '-' in
            let d0 = if neg then i + 1 else i in
            let e = ref d0 and acc = ref 0 in
            while
              !e < len
              && String.unsafe_get s !e <= '9'
              && String.unsafe_get s !e >= '0'
            do
              acc := (!acc * 10) + Char.code (String.unsafe_get s !e) - 48;
              incr e
            done;
            if
              !e = d0 || !e - d0 > 18
              || (!e < len
                 && match String.unsafe_get s !e with
                    | '.' | 'e' | 'E' -> true
                    | _ -> false)
            then -1
            else begin
              a.(r) <- (if neg then - !acc else !acc);
              !e
            end
        | Strs a ->
            if ch <> '"' then -1
            else begin
              let e = ref (i + 1) in
              while
                !e < len
                && match String.unsafe_get s !e with '"' | '\\' -> false | _ -> true
              do
                incr e
              done;
              if !e < len && String.unsafe_get s !e = '"' then begin
                a.(r) <- String.sub s (i + 1) (!e - i - 1);
                !e + 1
              end
              else -1
            end
        | Floats a -> if ch = '{' then float_cell s len i a r else -1
        | Bools a ->
            if occurs s len i "true" then begin
              a.(r) <- true;
              i + 4
            end
            else if occurs s len i "false" then begin
              a.(r) <- false;
              i + 5
            end
            else -1
        | Boxed _ -> -1)

(* Rows straight into typed columns of the schema's element types; a row
   of another width is a protocol error.

   One loop reads the rows from the frame's bytes.  A cell in the form
   [add_cell] writes it goes straight into its column's chunk, with the
   separator after it: an int of at most 18 digits with no fraction or
   exponent, a string without escapes (one [String.sub]), a normal or
   zero float (by [float_cell]), [null], [true] and [false].  At any
   other cell — a blank, an escape, a fraction in an int column, a boxed
   column, a subnormal or non-finite float — the cursor goes to
   [scan_cell] and [Scan.sep] for the rest of the row, and so does a
   separator the loop does not read, so what decodes to what, and every
   error, is what those readers decide.  The loop reads [Scan]'s source
   itself because the dev profile compiles with -opaque: a [Scan] reader
   is never inlined here, so reading through it costs a call per token. *)
let scan_columns c (schema : Schema.t) : Batch.t =
  let s = Scan.source c in
  let len = String.length s in
  let k = Schema.arity schema in
  let cap = ref 16 and m = ref 0 and n = ref 0 in
  let cols =
    Array.init k (fun j -> { data = blank (Schema.ty schema j) !cap; nulls = None; full = [] })
  in
  Scan.expect c '[';
  if not (Scan.eat c ']') then begin
    let p = ref (Scan.position c) in
    let more_rows = ref true in
    while !more_rows do
      if !m = !cap then
        if !cap < chunk_rows then begin
          cap := 2 * !cap;
          Array.iter (fun b -> resize b !m !cap) cols
        end
        else begin
          Array.iter
            (fun b ->
              b.full <- { Batch.data = b.data; nulls = b.nulls } :: b.full;
              b.data <- blank_like b.data chunk_rows;
              b.nulls <- None)
            cols;
          m := 0
        end;
      let r = !m in
      if at s len !p '[' then incr p
      else begin
        Scan.seek c !p;
        Scan.expect c '[';
        p := Scan.position c
      end;
      (* cells [0, j) are read, with the separator after each *)
      let j = ref 0 and fast = ref (k > 0) in
      while !fast do
        let q = fast_cell s len !p cols.(!j) r in
        if q < 0 then fast := false
        else begin
          let last = !j = k - 1 in
          incr j;
          fast := not last;
          if at s len q (if last then ']' else ',') then p := q + 1
          else begin
            Scan.seek c q;
            if Scan.sep c ']' = last then ragged ();
            p := Scan.position c;
            fast := false
          end
        end
      done;
      if !j < k || k = 0 then begin
        Scan.seek c !p;
        if !j = 0 && Scan.eat c ']' then (if k > 0 then ragged ())
        else if k = 0 then ragged ()
        else
          for j = !j to k - 1 do
            scan_cell c cols.(j) r;
            if Scan.sep c ']' <> (j < k - 1) then ragged ()
          done;
        p := Scan.position c
      end;
      incr m;
      incr n;
      if at s len !p ',' then incr p
      else if at s len !p ']' then begin
        incr p;
        more_rows := false
      end
      else begin
        Scan.seek c !p;
        more_rows := Scan.sep c ']';
        p := Scan.position c
      end
    done;
    Scan.seek c !p
  end;
  Batch.of_cols schema !n (Array.map (fun b -> finish b !m) cols)

(* ---- requests ---- *)

type request = {
  id : int;
  stmt : string;
  deadline_ms : int option;
      (** time budget from receipt; expired requests are cancelled while
          queued and answered with [Deadline_exceeded] *)
  trace : bool;  (** attach the Tkr_obs execution trace to the response *)
  trace_id : string option;
      (** client-supplied correlation id, echoed on the response and
          stamped on every server-side event-log line for this request *)
}

let request ?(id = 0) ?deadline_ms ?(trace = false) ?trace_id stmt =
  { id; stmt; deadline_ms; trace; trace_id }

let request_to_json (r : request) : Json.t =
  Json.Obj
    (("id", Json.Int r.id) :: ("stmt", Json.Str r.stmt)
    :: ((match r.deadline_ms with
        | Some ms -> [ ("deadline_ms", Json.Int ms) ]
        | None -> [])
       @ (if r.trace then [ ("trace", Json.Bool true) ] else [])
       @ (match r.trace_id with
         | Some tid -> [ ("trace_id", Json.Str tid) ]
         | None -> [])))

let request_of_json (j : Json.t) : request =
  let stmt =
    match Option.bind (Json.member "stmt" j) Json.to_string_opt with
    | Some s -> s
    | None -> raise (Protocol_error "request without stmt")
  in
  {
    id =
      Option.value ~default:0
        (Option.bind (Json.member "id" j) Json.to_int_opt);
    stmt;
    deadline_ms = Option.bind (Json.member "deadline_ms" j) Json.to_int_opt;
    trace = (match Json.member "trace" j with Some (Json.Bool b) -> b | _ -> false);
    trace_id = Option.bind (Json.member "trace_id" j) Json.to_string_opt;
  }

(* ---- responses ---- *)

type error_code =
  | Parse_error  (** the statement does not lex/parse *)
  | Check_error  (** rejected by the static check phase *)
  | Runtime_error  (** semantic or execution failure *)
  | Server_busy  (** admission queue above high-water: back off and retry *)
  | Deadline_exceeded  (** cancelled while queued past its deadline *)
  | Server_shutdown  (** draining: no new work accepted *)
  | Session_limit  (** connection rejected: too many sessions *)
  | Protocol_violation  (** malformed frame or request *)

let error_code_to_string = function
  | Parse_error -> "PARSE_ERROR"
  | Check_error -> "CHECK_ERROR"
  | Runtime_error -> "RUNTIME_ERROR"
  | Server_busy -> "SERVER_BUSY"
  | Deadline_exceeded -> "DEADLINE_EXCEEDED"
  | Server_shutdown -> "SERVER_SHUTDOWN"
  | Session_limit -> "SESSION_LIMIT"
  | Protocol_violation -> "PROTOCOL_ERROR"

let error_code_of_string = function
  | "PARSE_ERROR" -> Parse_error
  | "CHECK_ERROR" -> Check_error
  | "RUNTIME_ERROR" -> Runtime_error
  | "SERVER_BUSY" -> Server_busy
  | "DEADLINE_EXCEEDED" -> Deadline_exceeded
  | "SERVER_SHUTDOWN" -> Server_shutdown
  | "SESSION_LIMIT" -> Session_limit
  | "PROTOCOL_ERROR" -> Protocol_violation
  | s -> raise (Protocol_error ("unknown error code " ^ s))

type error = { code : error_code; message : string }

type body = Rows of Table.t | Message of string

type response = {
  rsp_id : int;
  cached : bool;  (** served from the snapshot-aware result cache *)
  elapsed_us : int;  (** server-side queue wait + execution *)
  body : (body, error) result;
  rsp_trace : Json.t option;  (** execution trace when the request opted in *)
  rsp_trace_id : string option;
      (** the correlation id the server logged this request under:
          echoes the request's [trace_id], or a server-generated id when
          the event log is on and the client sent none *)
}

(** The result payload as JSON text — this exact string is what the
    result cache stores, so cached responses are byte-identical. *)
let body_to_payload (b : body) : string =
  match b with
  | Rows t ->
      let buf = Buffer.create (64 + (32 * Table.cardinality t)) in
      add_table buf t;
      Buffer.contents buf
  | Message s ->
      let buf = Buffer.create (String.length s + 32) in
      Buffer.add_string buf {|{"kind":"done","message":|};
      Json.add_string buf s;
      Buffer.add_char buf '}';
      Buffer.contents buf

(* The rows decode as they come when the schema came before them;
   otherwise they are skipped, and decoded from where they start once
   the payload's last schema is known. *)
let scan_body c : body =
  let kind = ref "" and schema = ref None and rows = ref None
  and rows_at = ref (-1) and message = ref None in
  Scan.fields c (function
    | "kind" -> kind := Scan.string c
    | "schema" -> schema := Some (scan_schema c)
    | "rows" -> (
        rows_at := Scan.position c;
        match !schema with
        | Some sch -> rows := Some (sch, scan_columns c sch)
        | None ->
            rows := None;
            Scan.skip c)
    | "message" -> message := Some (Scan.string c)
    | _ -> Scan.skip c);
  match (!kind, !schema, !message) with
  | "rows", Some schema, _ -> (
      match !rows with
      | Some (sch, b) when sch == schema -> Rows (Table.of_batch b)
      | _ when !rows_at >= 0 ->
          let end_ = Scan.position c in
          Scan.seek c !rows_at;
          let b = scan_columns c schema in
          Scan.seek c end_;
          Rows (Table.of_batch b)
      | _ -> raise (Protocol_error "missing rows"))
  | "rows", None, _ -> raise (Protocol_error "missing schema")
  | "done", _, Some m -> Message m
  | "done", _, None -> raise (Protocol_error "done without message")
  | _ -> raise (Protocol_error "bad payload kind")

(* the payload travels pre-rendered (possibly straight from the cache):
   splice it into the envelope as-is.  [trace_id] is omitted entirely
   when [None], keeping frames byte-identical to a telemetry-free
   server for clients that never send one. *)
let ok_frame ~id ~cached ~elapsed_us ?trace ?trace_id (payload : string) :
    string =
  let buf = Buffer.create (String.length payload + 96) in
  Buffer.add_string buf {|{"id":|};
  Json.add_int buf id;
  Buffer.add_string buf {|,"status":"ok","cached":|};
  add_bool buf cached;
  Buffer.add_string buf {|,"elapsed_us":|};
  Json.add_int buf elapsed_us;
  (match trace_id with
  | Some tid ->
      Buffer.add_string buf {|,"trace_id":|};
      Json.add_string buf tid
  | None -> ());
  (match trace with
  | Some t ->
      Buffer.add_string buf {|,"trace":|};
      Json.write buf t
  | None -> ());
  Buffer.add_string buf {|,"result":|};
  Buffer.add_string buf payload;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* invert [ok_frame]: the payload is everything between the first
   result-key marker and the closing brace.  The marker's quotes are
   unescaped, and any quote inside a serialized JSON string (trace_id,
   trace) travels backslash-escaped, so the first occurrence is always
   the envelope's own key. *)
let ok_frame_payload (frame : string) : string option =
  let marker = {|,"result":|} in
  let mlen = String.length marker in
  let flen = String.length frame in
  let at i =
    let k = ref 0 in
    while !k < mlen && String.unsafe_get frame (i + !k) = String.unsafe_get marker !k do
      incr k
    done;
    !k = mlen
  in
  let rec find i =
    if i + mlen > flen then None else if at i then Some (i + mlen) else find (i + 1)
  in
  match find 0 with
  | Some start when flen > start && frame.[flen - 1] = '}' ->
      Some (String.sub frame start (flen - start - 1))
  | _ -> None

let error_frame ~id ?trace_id (e : error) : string =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Int id);
          ("status", Json.Str "error");
          ("code", Json.Str (error_code_to_string e.code));
          ("message", Json.Str e.message);
        ]
       @ match trace_id with
         | Some tid -> [ ("trace_id", Json.Str tid) ]
         | None -> []))

(* one pass over the envelope; the "result" payload decodes straight
   into a table, without a tree in between *)
let response_of_string (s : string) : response =
  let c = Scan.cursor s in
  let id = ref 0 and status = ref "" and cached = ref false
  and elapsed_us = ref 0 and body = ref None and trace = ref None
  and trace_id = ref None and code = ref None and message = ref "" in
  Scan.fields c (function
    | "id" -> id := Scan.int c
    | "status" -> status := Scan.string c
    | "cached" -> cached := Scan.bool c
    | "elapsed_us" -> elapsed_us := Scan.int c
    | "result" -> body := Some (scan_body c)
    | "trace" -> trace := Some (Scan.value c)
    | "trace_id" -> trace_id := Some (Scan.string c)
    | "code" -> code := Some (Scan.string c)
    | "message" -> message := Scan.string c
    | _ -> Scan.skip c);
  Scan.finish c;
  match !status with
  | "ok" ->
      let body =
        match !body with
        | Some b -> b
        | None -> raise (Protocol_error "ok response without result")
      in
      {
        rsp_id = !id;
        cached = !cached;
        elapsed_us = !elapsed_us;
        body = Ok body;
        rsp_trace = !trace;
        rsp_trace_id = !trace_id;
      }
  | "error" ->
      let code =
        match !code with
        | Some c -> error_code_of_string c
        | None -> raise (Protocol_error "error response without code")
      in
      {
        rsp_id = !id;
        cached = false;
        elapsed_us = 0;
        body = Error { code; message = !message };
        rsp_trace = None;
        rsp_trace_id = !trace_id;
      }
  | _ -> raise (Protocol_error "response without status")

(* ---- greeting ---- *)

let proto_version = 1

let greeting_frame ~session_id : string =
  Json.to_string
    (Json.Obj
       [
         ("server", Json.Str "tkr_serve");
         ("proto", Json.Int proto_version);
         ("session", Json.Int session_id);
       ])

(** [Ok session_id] on a greeting, [Error e] on a rejection frame. *)
let greeting_of_string (s : string) : (int, error) result =
  let j = Json.of_string s in
  match Json.member "session" j with
  | Some (Json.Int id) -> Ok id
  | _ -> (
      match Option.bind (Json.member "code" j) Json.to_string_opt with
      | Some c ->
          Error
            {
              code = error_code_of_string c;
              message =
                Option.value ~default:""
                  (Option.bind (Json.member "message" j) Json.to_string_opt);
            }
      | None -> raise (Protocol_error "bad greeting"))
