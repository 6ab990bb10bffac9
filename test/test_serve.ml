(* The query server (Tkr_serve): wire-protocol round-trips, the
   snapshot-aware result cache (hits, version invalidation, LRU
   eviction), per-table version counters, admission-control semantics,
   thread-safety of one shared middleware hammered from four domains
   (alcotest + qcheck op mix), and end-to-end server/client byte-identity
   against in-process execution with the cache on and off. *)

module Value = Tkr_relation.Value
module Schema = Tkr_relation.Schema
module Tuple = Tkr_relation.Tuple
module Table = Tkr_engine.Table
module Database = Tkr_engine.Database
module M = Tkr_middleware.Middleware
module Wire = Tkr_serve.Wire
module Cache = Tkr_serve.Cache
module Admission = Tkr_serve.Admission
module Session = Tkr_serve.Session
module Server = Tkr_serve.Server
module Client = Tkr_serve.Client
module Json = Tkr_obs.Json
module Jsonl = Tkr_obs.Jsonl
module Record = Tkr_rec.Record
module W = Tkr_workload.Employees
module Q = Tkr_workload.Queries

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---- wire protocol ---- *)

let sample_table () =
  let schema =
    Schema.make
      [
        Schema.attr "ok" Value.TBool;
        Schema.attr "n" Value.TInt;
        Schema.attr "x" Value.TFloat;
        Schema.attr "s" Value.TStr;
      ]
  in
  Table.of_array schema
    [|
      Tuple.of_array
        [| Value.Bool true; Value.Int 42; Value.Float 0.1; Value.Str "a b" |];
      Tuple.of_array
        [| Value.Null; Value.Int (-7); Value.Float 1e-300; Value.Str "" |];
      Tuple.of_array
        [|
          Value.Bool false; Value.Null; Value.Float (-3.75); Value.Str "q'z";
        |];
    |]

(* The tree renderer the direct encoder replaced, kept as the oracle
   for byte identity: each value and the table become a [Json.t], which
   the old escaper and writer render. *)
module Oracle = struct
  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec write buf = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Int i -> Buffer.add_string buf (string_of_int i)
    | Json.Float f ->
        if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
        else Buffer.add_string buf "null"
    | Json.Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | Json.List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            write buf item)
          items;
        Buffer.add_char buf ']'
    | Json.Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let value_to_json : Value.t -> Json.t = function
    | Value.Null -> Json.Null
    | Value.Bool b -> Json.Bool b
    | Value.Int i -> Json.Int i
    | Value.Str s -> Json.Str s
    | Value.Float f -> Json.Obj [ ("f", Json.Str (Printf.sprintf "%h" f)) ]

  let ty = function
    | Value.TBool -> "bool"
    | Value.TInt -> "int"
    | Value.TFloat -> "float"
    | Value.TStr -> "text"

  let payload (t : Table.t) : string =
    let j =
      Json.Obj
        [
          ("kind", Json.Str "rows");
          ( "schema",
            Json.List
              (List.map
                 (fun (a : Schema.attr) ->
                   Json.List [ Json.Str a.name; Json.Str (ty a.ty) ])
                 (Schema.attrs (Table.schema t))) );
          ( "rows",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun row ->
                      Json.List (List.map value_to_json (Array.to_list row)))
                    (Table.rows t))) );
        ]
    in
    let buf = Buffer.create 256 in
    write buf j;
    Buffer.contents buf
end

(* floats compare by bits (so -0.0 is not 0.0); NaN payloads are not
   carried by [%h], so any NaN equals any NaN *)
let value_identical (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      (Float.is_nan x && Float.is_nan y)
      || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let tables_identical (a : Table.t) (b : Table.t) =
  Table.schema a = Table.schema b
  && Array.length (Table.rows a) = Array.length (Table.rows b)
  && Array.for_all2
       (fun (r : Tuple.t) (r' : Tuple.t) ->
         Array.length r = Array.length r' && Array.for_all2 value_identical r r')
       (Table.rows a) (Table.rows b)

let rows_of_frame frame =
  match (Wire.response_of_string frame).Wire.body with
  | Ok (Wire.Rows t) -> t
  | _ -> Alcotest.fail "expected rows"

let test_wire_table_roundtrip () =
  let t = sample_table () in
  let payload = Wire.body_to_payload (Wire.Rows t) in
  check_str "payload is the tree rendering" (Oracle.payload t) payload;
  let t' = rows_of_frame (Wire.ok_frame ~id:1 ~cached:false ~elapsed_us:0 payload) in
  check "schema survives" true (Table.schema t' = Table.schema t);
  check "rows survive exactly (incl. floats and nulls)" true
    (tables_identical t t');
  (* the payload is the cache's stored unit: serializing again must give
     the same bytes, or cached responses would not be byte-identical *)
  check_str "payload bytes are stable" payload
    (Wire.body_to_payload (Wire.Rows t'))

(* one fixed table over every value kind and its bytes as the tree
   codec rendered them: byte identity pinned apart from the oracle *)
let golden_table () =
  Table.of_array
    (Schema.make
       [
         Schema.attr "b" Value.TBool;
         Schema.attr "n" Value.TInt;
         Schema.attr "x" Value.TFloat;
         Schema.attr "s \"q\"" Value.TStr;
       ])
    [|
      Tuple.of_array
        [| Value.Bool true; Value.Int max_int; Value.Float 0.1; Value.Str "a\"b\\c/d" |];
      Tuple.of_array
        [|
          Value.Bool false; Value.Int min_int; Value.Float (-0.);
          Value.Str "t\tn\nr\rz\000\031\127";
        |];
      Tuple.of_array [| Value.Null; Value.Int 0; Value.Float Float.nan; Value.Null |];
      Tuple.of_array
        [| Value.Null; Value.Int (-7); Value.Float Float.neg_infinity; Value.Str "" |];
      Tuple.of_array
        [|
          Value.Bool true; Value.Null; Value.Float 4.9e-324;
          Value.Str "\xc3\xa9\xf0\x9d\x84\x9e";
        |];
    |]

let golden_payload =
  "{\"kind\":\"rows\",\"schema\":[[\"b\",\"bool\"],[\"n\",\"int\"],\
   [\"x\",\"float\"],[\"s \\\"q\\\"\",\"text\"]],\"rows\":[\
   [true,4611686018427387903,{\"f\":\"0x1.999999999999ap-4\"},\"a\\\"b\\\\c/d\"],\
   [false,-4611686018427387904,{\"f\":\"-0x0p+0\"},\
   \"t\\tn\\nr\\rz\\u0000\\u001f\127\"],\
   [null,0,{\"f\":\"nan\"},null],\
   [null,-7,{\"f\":\"-infinity\"},\"\"],\
   [true,null,{\"f\":\"0x0.0000000000001p-1022\"},\"\195\169\240\157\132\158\"]]}"

let test_wire_golden () =
  let t = golden_table () in
  check_str "rows payload" golden_payload (Wire.body_to_payload (Wire.Rows t));
  check_str "ok frame"
    ("{\"id\":3,\"status\":\"ok\",\"cached\":false,\"elapsed_us\":41,\
      \"trace_id\":\"t-\\\"1\\\"\",\"result\":" ^ golden_payload ^ "}")
    (Wire.ok_frame ~id:3 ~cached:false ~elapsed_us:41 ~trace_id:"t-\"1\""
       golden_payload);
  check_str "message payload"
    "{\"kind\":\"done\",\"message\":\"created table \\\"t\\\"\\n\"}"
    (Wire.body_to_payload (Wire.Message "created table \"t\"\n"));
  check "golden decodes to its table" true
    (tables_identical t
       (rows_of_frame (Wire.ok_frame ~id:3 ~cached:false ~elapsed_us:41 golden_payload)))

(* ---- codec properties over random tables ---- *)

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, float);
        ( 2,
          oneofl
            [
              Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 4.9e-324;
              2.2250738585072009e-308; Float.min_float; Float.max_float;
              Float.epsilon; 0.1; -1e-310;
            ] );
      ])

let gen_int =
  QCheck.Gen.(
    frequency
      [ (3, int); (2, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1 ]) ])

let gen_text =
  QCheck.Gen.(
    frequency
      [
        (2, string_size ~gen:char (int_range 0 12));
        ( 2,
          map (String.concat "")
            (list_size (int_range 0 6)
               (oneofl
                  [
                    "\""; "\\"; "\n"; "\t"; "\000"; "\031"; "\127"; "/"; "a";
                    "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\\u0041";
                  ])) );
      ])

let gen_cell ty =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.Null);
        ( 5,
          match ty with
          | Value.TBool -> map (fun b -> Value.Bool b) bool
          | Value.TInt -> map (fun i -> Value.Int i) gen_int
          | Value.TFloat -> map (fun f -> Value.Float f) gen_float
          | Value.TStr -> map (fun s -> Value.Str s) gen_text );
      ])

(* zero rows, narrow and wide rows, every value kind and NULLs *)
let gen_table ~max_width ~max_rows =
  QCheck.Gen.(
    let* width =
      frequency [ (4, int_range 1 (min 6 max_width)); (1, int_range 1 max_width) ]
    in
    let* tys =
      list_repeat width (oneofl [ Value.TBool; Value.TInt; Value.TFloat; Value.TStr ])
    in
    let* names = list_repeat width gen_text in
    let* nrows = frequency [ (1, return 0); (4, int_range 1 max_rows) ] in
    let+ rows = list_repeat nrows (flatten_l (List.map gen_cell tys)) in
    Table.of_array
      (Schema.make
         (List.mapi (fun i (n, ty) -> Schema.attr (string_of_int i ^ n) ty)
            (List.combine names tys)))
      (Array.of_list (List.map (fun r -> Tuple.of_array (Array.of_list r)) rows)))

let arb_table ~max_width ~max_rows =
  QCheck.make
    ~print:(fun t -> Wire.body_to_payload (Wire.Rows t))
    (gen_table ~max_width ~max_rows)

let sample_trace =
  Json.Obj
    [
      ("name", Json.Str "query \"q\"");
      ("ms", Json.Float 0.25);
      ("children", Json.List [ Json.Obj [ ("rows", Json.Int 7) ] ]);
    ]

let prop_payload_is_tree_rendering =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"wire: direct render = tree rendering"
       (arb_table ~max_width:40 ~max_rows:30)
       (fun t -> Wire.body_to_payload (Wire.Rows t) = Oracle.payload t))

let prop_frames_decode_rows =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"wire: ok frames decode to equal rows, traced or not"
       (arb_table ~max_width:40 ~max_rows:30)
       (fun t ->
         let payload = Wire.body_to_payload (Wire.Rows t) in
         List.for_all
           (fun (trace, trace_id) ->
             let frame =
               Wire.ok_frame ~id:9 ~cached:true ~elapsed_us:5 ?trace ?trace_id
                 payload
             in
             let rsp = Wire.response_of_string frame in
             rsp.Wire.rsp_id = 9 && rsp.Wire.cached && rsp.Wire.elapsed_us = 5
             && rsp.Wire.rsp_trace = trace
             && rsp.Wire.rsp_trace_id = trace_id
             && Wire.ok_frame_payload frame = Some payload
             &&
             match rsp.Wire.body with
             | Ok (Wire.Rows t') -> tables_identical t t'
             | _ -> false)
           [
             (None, None);
             (None, Some "t7-\"x\"");
             (Some sample_trace, None);
             (Some sample_trace, Some "t7-3");
           ]))

(* every truncation and single-byte change of a valid frame decodes or
   is a typed decode error, never any other exception *)
let decodes_or_typed_error frame =
  match Wire.response_of_string frame with
  | _ -> true
  | exception (Wire.Protocol_error _ | Json.Parse_error _) -> true

let prop_frame_mutations =
  let gen =
    QCheck.Gen.(
      pair (gen_table ~max_width:5 ~max_rows:5)
        (list_size (int_range 20 60) (pair nat char)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"wire: truncated or mutated frames fail typed"
       (QCheck.make gen)
       (fun (t, edits) ->
         let frame =
           Wire.ok_frame ~id:4 ~cached:false ~elapsed_us:1 ~trace:sample_trace
             ~trace_id:"t4-1"
             (Wire.body_to_payload (Wire.Rows t))
         in
         let n = String.length frame in
         let truncations_ok =
           List.for_all
             (fun k -> decodes_or_typed_error (String.sub frame 0 k))
             (List.init n Fun.id)
         in
         truncations_ok
         && List.for_all
              (fun (at, c) ->
                let b = Bytes.of_string frame in
                Bytes.set b (at mod n) c;
                decodes_or_typed_error (Bytes.to_string b))
              edits))

(* a 1,000-row, 5-column ok frame decodes in a bounded number of
   minor-heap words: 1.25x the 30,876 measured once rows decoded
   straight into tuples (the tree decoder took 299,439).  Allocation
   counts repeat exactly from run to run, so the bound is deterministic. *)
let wide_frame () =
  let schema =
    Schema.make
      [
        Schema.attr "id" Value.TInt;
        Schema.attr "name" Value.TStr;
        Schema.attr "salary" Value.TInt;
        Schema.attr "vt_begin" Value.TInt;
        Schema.attr "avg" Value.TFloat;
      ]
  in
  let rows =
    Array.init 1000 (fun i ->
        Tuple.of_array
          [|
            Value.Int i;
            Value.Str (Printf.sprintf "employee-%04d" i);
            Value.Int (40_000 + (i * 37 mod 20_000));
            Value.Int (i * 3);
            (if i mod 10 = 0 then Value.Null
             else Value.Float (float_of_int i /. 7.));
          |])
  in
  Wire.ok_frame ~id:1 ~cached:false ~elapsed_us:0
    (Wire.body_to_payload (Wire.Rows (Table.of_array schema rows)))

let test_wire_decode_alloc_guard () =
  let frame = wide_frame () in
  ignore (Wire.response_of_string frame);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Wire.response_of_string frame));
  let words = Gc.minor_words () -. w0 in
  let bound = 1.25 *. 30_876. in
  if words > bound then
    Alcotest.failf "decoding a 1,000-row frame allocated %.0f minor words (bound %.0f)"
      words bound

(* A float column decodes into its unboxed chunks with nothing made
   per cell: no key, no literal text, no boxed float.  The minor-heap
   words per cell of an [n]-row, one-float-column frame (its chunks of
   at most 257 words each, then the envelope) stay under 2.5 at 1,000
   and 10,000 rows alike; reading the key and the literal as strings
   and the value through [float_of_string] took 9.1 to 9.7.  Allocation
   counts repeat exactly from run to run. *)
let test_wire_float_decode_alloc () =
  let words_per_cell n =
    let t =
      Table.of_array
        (Schema.make [ Schema.attr "avg" Value.TFloat ])
        (Array.init n (fun i ->
             Tuple.of_array [| Value.Float (float_of_int (i - 300) /. 7.) |]))
    in
    let frame =
      Wire.ok_frame ~id:1 ~cached:false ~elapsed_us:0 (Wire.body_to_payload (Wire.Rows t))
    in
    ignore (Wire.response_of_string frame);
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Wire.response_of_string frame));
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  List.iter
    (fun n ->
      let w = words_per_cell n in
      if w > 2.5 then
        Alcotest.failf "a %d-row float column allocated %.2f minor words per cell (bound 2.5)" n w)
    [ 1_000; 10_000 ]

(* ---- the column codec ---- *)

(* A column of one declared type whose cells are NULL at a chosen rate
   (none to all), with perhaps one cell of another type somewhere, or a
   mixed column of cells of any type; the column made from rows keeps
   the last two boxed.  Some tables run past the decoder's 256-row
   chunks. *)
let gen_codec_column nrows =
  QCheck.Gen.(
    let* ty = oneofl [ Value.TBool; Value.TInt; Value.TFloat; Value.TStr ] in
    let* kind = frequency [ (3, return `Typed); (1, return `Odd); (1, return `Mixed) ] in
    let* null_rate = oneofl [ 0; 1; 5; 9; 10 ] in
    let typed ty =
      let* r = int_bound 9 in
      if r < null_rate then return Value.Null
      else
        match ty with
        | Value.TBool -> map (fun b -> Value.Bool b) bool
        | Value.TInt -> map (fun i -> Value.Int i) gen_int
        | Value.TFloat -> map (fun f -> Value.Float f) gen_float
        | Value.TStr -> map (fun s -> Value.Str s) gen_text
    in
    let any = oneofl [ Value.TBool; Value.TInt; Value.TFloat; Value.TStr ] >>= gen_cell in
    let* cells = array_repeat nrows (if kind = `Mixed then any else typed ty) in
    let* odd = int_bound (max 0 (nrows - 1)) and* other = any in
    if kind = `Odd && nrows > 0 then cells.(odd) <- other;
    return (ty, cells))

let gen_codec_table =
  QCheck.Gen.(
    let* width = int_range 0 6 in
    let* nrows =
      frequency [ (1, return 0); (4, int_range 1 25); (1, int_range 250 700) ]
    in
    let* names = list_repeat width gen_text in
    let+ cols = list_repeat width (gen_codec_column nrows) in
    let cols = Array.of_list cols in
    Table.of_array
      (Schema.make
         (List.mapi (fun i (n, (ty, _)) -> Schema.attr (string_of_int i ^ n) ty)
            (List.combine names (Array.to_list cols))))
      (Array.init nrows (fun i -> Array.map (fun (_, cells) -> cells.(i)) cols)))

(* the payload's fields, through the tree parser: ["kind"; "schema";
   "rows"] *)
let payload_fields payload =
  match Json.of_string payload with
  | Json.Obj [ kind; schema; (_, Json.List rows) ] -> (kind, schema, rows)
  | _ -> Alcotest.fail "unexpected payload shape"

let frame_of_fields fields =
  Wire.ok_frame ~id:2 ~cached:false ~elapsed_us:3 (Json.to_string (Json.Obj fields))

(* [t]'s payload in forms the writer never uses: [blank] before every
   token and at the end, and with [odd], cells the decoder's byte loop
   hands on to the general readers — strings with [\u0041] for A and
   [\/] for /, some float keys [f] as [\u0066], and some ints as
   [<i>.0] *)
let render_payload ~blank ~odd (t : Table.t) =
  let buf = Buffer.create 1024 in
  let tok s =
    Buffer.add_string buf blank;
    Buffer.add_string buf s
  in
  let str s =
    Buffer.add_string buf blank;
    if not odd then Json.add_string buf s
    else begin
      Buffer.add_char buf '"';
      String.iter
        (function
          | 'A' -> Buffer.add_string buf "\\u0041"
          | '/' -> Buffer.add_string buf "\\/"
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
    end
  in
  let cell r j : Value.t -> unit = function
    | Value.Null -> tok "null"
    | Value.Bool b -> tok (string_of_bool b)
    | Value.Int i ->
        tok (if odd && (r + j) mod 3 = 1 then string_of_int i ^ ".0" else string_of_int i)
    | Value.Str s -> str s
    | Value.Float f ->
        tok "{";
        if odd && (r + j) mod 3 = 2 then tok {|"\u0066"|} else str "f";
        tok ":";
        str (Printf.sprintf "%h" f);
        tok "}"
  in
  let list f items =
    tok "[";
    List.iteri
      (fun i x ->
        if i > 0 then tok ",";
        f i x)
      items;
    tok "]"
  in
  tok "{";
  str "kind";
  tok ":";
  str "rows";
  tok ",";
  str "schema";
  tok ":";
  list
    (fun _ (a : Schema.attr) -> list (fun _ s -> str s) [ a.name; Oracle.ty a.ty ])
    (Schema.attrs (Table.schema t));
  tok ",";
  str "rows";
  tok ":";
  list (fun r row -> list (cell r) (Array.to_list row)) (Array.to_list (Table.rows t));
  tok "}";
  Buffer.add_string buf blank;
  Buffer.contents buf

(* what [render_payload ~odd:true] decodes to: an int written [<i>.0]
   is a float, which boxes an int column *)
let odd_ints (t : Table.t) =
  Table.of_array (Table.schema t)
    (Array.mapi
       (fun r row ->
         Array.mapi
           (fun j (v : Value.t) ->
             match v with
             | Value.Int i when (r + j) mod 3 = 1 ->
                 Value.Float (float_of_string (string_of_int i ^ ".0"))
             | v -> v)
           row)
       (Table.rows t))

let prop_column_codec =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400
       ~name:"wire: rows and columns render, decode and re-render alike"
       (QCheck.make
          ~print:(fun (t, _) -> Wire.body_to_payload (Wire.Rows t))
          QCheck.Gen.(pair gen_codec_table (pair nat bool)))
       (fun (t, (at, wider)) ->
         let from_cols = Table.of_batch (Table.columnar t) in
         let payload = Wire.body_to_payload (Wire.Rows t) in
         let decoded = rows_of_frame (Wire.ok_frame ~id:1 ~cached:false ~elapsed_us:0 payload) in
         let kind, schema, rows = payload_fields payload in
         let rows_first = rows_of_frame (frame_of_fields [ kind; ("rows", Json.List rows); schema ]) in
         (* one row one cell wider or narrower than the schema *)
         let ragged =
           match rows with
           | [] -> true
           | _ ->
               let r = at mod List.length rows in
               let rows =
                 List.mapi
                   (fun i row ->
                     match row with
                     | Json.List cells when i = r ->
                         if wider || cells = [] then Json.List (cells @ [ Json.Int 1 ])
                         else Json.List (List.tl cells)
                     | row -> row)
                   rows
               in
               List.for_all
                 (fun fields ->
                   match Wire.response_of_string (frame_of_fields fields) with
                   | _ -> false
                   | exception Wire.Protocol_error _ -> true)
                 [
                   [ kind; schema; ("rows", Json.List rows) ];
                   [ ("rows", Json.List rows); kind; schema ];
                 ]
         in
         (* the row's last cell dropped: the width breaks after the
            cells before it are read *)
         let cut =
           match rows with
           | [] -> true
           | _ ->
               let r = at mod List.length rows in
               let rows =
                 List.mapi
                   (fun i row ->
                     match row with
                     | Json.List (_ :: _ as cells) when i = r ->
                         Json.List (List.filteri (fun j _ -> j < List.length cells - 1) cells)
                     | row -> row)
                   rows
               in
               Schema.arity (Table.schema t) = 0
               ||
               match Wire.response_of_string (frame_of_fields [ kind; schema; ("rows", Json.List rows) ]) with
               | _ -> false
               | exception Wire.Protocol_error _ -> true
         in
         let frame p = Wire.ok_frame ~id:1 ~cached:false ~elapsed_us:0 p in
         Wire.body_to_payload (Wire.Rows from_cols) = payload
         && tables_identical t decoded
         && Wire.body_to_payload (Wire.Rows decoded) = payload
         && tables_identical t rows_first
         && ragged && cut
         && tables_identical decoded
              (rows_of_frame (frame (render_payload ~blank:" \n\t\r " ~odd:false t)))
         && tables_identical (odd_ints decoded)
              (rows_of_frame (frame (render_payload ~blank:"" ~odd:true t)))))

(* the envelope as [Printf] assembled it before *)
let printf_ok_frame ~id ~cached ~elapsed_us ?trace ?trace_id payload =
  Printf.sprintf {|{"id":%d,"status":"ok","cached":%b,"elapsed_us":%d|} id cached
    elapsed_us
  ^ (match trace_id with
    | Some tid -> {|,"trace_id":|} ^ Json.to_string (Json.Str tid)
    | None -> "")
  ^ (match trace with Some t -> {|,"trace":|} ^ Json.to_string t | None -> "")
  ^ {|,"result":|} ^ payload ^ "}"

let prop_ok_frame_bytes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"wire: ok frames are the printf envelope"
       QCheck.(
         make
           Gen.(
             quad gen_int (pair gen_int bool) (opt gen_text)
               (opt (oneofl [ sample_trace; Json.Obj []; Json.List [ Json.Int (-3) ] ]))))
       (fun (id, (elapsed_us, cached), trace_id, trace) ->
         let payload = {|{"kind":"done","message":"ok"}|} in
         Wire.ok_frame ~id ~cached ~elapsed_us ?trace ?trace_id payload
         = printf_ok_frame ~id ~cached ~elapsed_us ?trace ?trace_id payload))

let prop_add_int =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"json: add_int prints as string_of_int"
       (QCheck.make ~print:string_of_int
          QCheck.Gen.(
            oneof
              [
                gen_int;
                map (fun (d, s) -> (if s then -1 else 1) * (d + 0)) (pair (int_bound 1_000_000) bool);
                map
                  (fun k -> int_of_float (10. ** float_of_int k) + Random.int 3 - 1)
                  (int_range 0 18);
              ]))
       (fun i ->
         let buf = Buffer.create 24 in
         Json.add_int buf i;
         Buffer.contents buf = string_of_int i))

(* words allocated, in either heap, while [f] runs *)
let words f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (r, int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)))

(* A 1,000-row result of three int columns, made from columns as an
   executed query makes it, is rendered without boxing a cell: 6,165
   words, the payload buffer and its copy (34,166 when the table boxed
   its rows on construction and each int went through a scratch
   string).  Its payload decodes into typed columns in 7,838 words, 2.6
   per cell (14,208 when rows decoded into tuples), and no tuple exists
   until [Table.rows] asks: that call then boxes every row, 11,028
   words (14 when the decoder had made them).  Allocation counts repeat
   exactly from run to run; the upper bounds are 1.25x the measured
   ones. *)
let test_column_codec_words () =
  let module Batch = Tkr_engine.Batch in
  let n = 1_000 in
  let ints f = { Batch.data = Batch.Ints (Array.init n f); nulls = None } in
  let schema =
    Schema.make
      [ Schema.attr "id" Value.TInt; Schema.attr "salary" Value.TInt; Schema.attr "b" Value.TInt ]
  in
  let batch =
    Batch.of_cols schema n
      [| ints Fun.id; ints (fun i -> 40_000 + (i * 37 mod 20_000)); ints (fun i -> i * 3) |]
  in
  let render () = Wire.body_to_payload (Wire.Rows (Table.of_batch batch)) in
  ignore (render ());
  let payload, rendered = words render in
  let frame = Wire.ok_frame ~id:1 ~cached:false ~elapsed_us:0 payload in
  ignore (Wire.response_of_string frame);
  let rsp, decoded = words (fun () -> Wire.response_of_string frame) in
  let t =
    match rsp.Wire.body with Ok (Wire.Rows t) -> t | _ -> Alcotest.fail "expected rows"
  in
  let rows, boxed = words (fun () -> Table.rows t) in
  check_int "rows" n (Array.length rows);
  check (Printf.sprintf "render: %d words <= 7,706" rendered) true (rendered <= 7_706);
  check (Printf.sprintf "decode: %d words <= 9,798" decoded) true (decoded <= 9_798);
  check (Printf.sprintf "Table.rows after decode: %d words >= 10,000" boxed) true
    (boxed >= 10_000)

let test_wire_frames () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close a; close b) @@ fun () ->
  Wire.write_frame a "hello";
  Wire.write_frame a "";
  Wire.write_frame a (String.make 100_000 'x');
  check "frame 1" true (Wire.read_frame b = Some "hello");
  check "empty frame" true (Wire.read_frame b = Some "");
  check "large frame" true (Wire.read_frame b = Some (String.make 100_000 'x'));
  Unix.close a;
  check "clean EOF is None" true (Wire.read_frame b = None)

(* a peer announcing a max-size frame that then stalls must not make the
   reader allocate the announced length up front *)
let test_wire_stalled_frame () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close a; close b) @@ fun () ->
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int Wire.max_frame);
  ignore (Unix.write a hdr 0 4);
  ignore (Unix.write_substring a "0123456789" 0 10);
  Unix.close a;
  let before = Gc.allocated_bytes () in
  (match Wire.read_frame b with
  | _ -> Alcotest.fail "expected a truncated-frame error"
  | exception Wire.Protocol_error msg ->
      Alcotest.(check string) "error" "truncated frame" msg);
  let allocated = Gc.allocated_bytes () -. before in
  if allocated >= 1024. *. 1024. then
    Alcotest.failf "read of a stalled frame allocated %.0f bytes" allocated

let test_wire_request_response () =
  let req = Wire.request ~id:7 ~deadline_ms:250 ~trace:true "SELECT 1" in
  let req' =
    Wire.request_of_json (Json.of_string (Json.to_string (Wire.request_to_json req)))
  in
  check "request round-trips" true (req' = req);
  (* the trace-id field round-trips when present and is absent otherwise *)
  let traced = Wire.request ~id:8 ~trace_id:"t1-9" "SELECT 2" in
  let traced' =
    Wire.request_of_json
      (Json.of_string (Json.to_string (Wire.request_to_json traced)))
  in
  check "trace id round-trips" true (traced'.Wire.trace_id = Some "t1-9");
  check "no trace id by default" true (req.Wire.trace_id = None);
  let t = sample_table () in
  let payload = Wire.body_to_payload (Wire.Rows t) in
  let frame = Wire.ok_frame ~id:7 ~cached:true ~elapsed_us:12 payload in
  let rsp = Wire.response_of_string frame in
  check_int "response id" 7 rsp.Wire.rsp_id;
  check "response cached flag" true rsp.Wire.cached;
  check "response without trace id" true (rsp.Wire.rsp_trace_id = None);
  let traced_frame =
    Wire.ok_frame ~id:7 ~cached:true ~elapsed_us:12 ~trace_id:"t1-9" payload
  in
  check "response trace id" true
    ((Wire.response_of_string traced_frame).Wire.rsp_trace_id = Some "t1-9");
  (* the splice leaves the payload bytes untouched: minus the trace_id
     field the frames are identical, so cached responses stay
     byte-identical whether or not telemetry is on *)
  check "traced frame is the plain frame plus one field" true
    (String.length traced_frame
     = String.length frame + String.length ",\"trace_id\":\"t1-9\"");
  (match rsp.Wire.body with
  | Ok (Wire.Rows t') ->
      check "response rows" true
        (Array.for_all2 Tuple.equal (Table.rows t) (Table.rows t'))
  | _ -> Alcotest.fail "expected rows");
  let ef_traced =
    Wire.error_frame ~id:3 ~trace_id:"t2-4"
      { Wire.code = Wire.Server_busy; message = "queue full" }
  in
  check "error frame trace id" true
    ((Wire.response_of_string ef_traced).Wire.rsp_trace_id = Some "t2-4");
  let ef =
    Wire.error_frame ~id:3
      { Wire.code = Wire.Server_busy; message = "queue full" }
  in
  match (Wire.response_of_string ef).Wire.body with
  | Error { Wire.code = Wire.Server_busy; message = "queue full" } -> ()
  | _ -> Alcotest.fail "expected SERVER_BUSY error"

(* ---- result cache ---- *)

let test_cache_hit_and_invalidation () =
  let c = Cache.create ~max_bytes:10_000 in
  let deps = [ ("works", 1); ("emp", 3) ] in
  check "miss on empty" true (Cache.find c ~key:"k" ~deps = None);
  Cache.add c ~key:"k" ~deps "payload-bytes";
  check "hit on same versions" true
    (Cache.find c ~key:"k" ~deps = Some "payload-bytes");
  (* dependency order must not matter *)
  check "hit is order-insensitive" true
    (Cache.find c ~key:"k" ~deps:(List.rev deps) = Some "payload-bytes");
  (* a bumped version invalidates exactly this entry *)
  Cache.add c ~key:"other" ~deps:[ ("salaries", 2) ] "other-bytes";
  check "stale versions invalidate" true
    (Cache.find c ~key:"k" ~deps:[ ("works", 2); ("emp", 3) ] = None);
  check "unrelated entry survives" true
    (Cache.find c ~key:"other" ~deps:[ ("salaries", 2) ] = Some "other-bytes");
  let s = Cache.stats c in
  check_int "one invalidation" 1 s.Cache.invalidations;
  check_int "entries" 1 s.Cache.entries

let test_cache_lru_eviction () =
  let c = Cache.create ~max_bytes:30 in
  let evictions () = (Cache.stats c).Cache.evictions in
  Cache.add c ~key:"a" ~deps:[] (String.make 10 'a');
  Cache.add c ~key:"b" ~deps:[] (String.make 10 'b');
  Cache.add c ~key:"c" ~deps:[] (String.make 10 'c');
  check_int "no eviction adding a, b, c" 0 (evictions ());
  (* touch a so b is the least recently used *)
  check "a hits" true (Cache.find c ~key:"a" ~deps:[] <> None);
  Cache.add c ~key:"d" ~deps:[] (String.make 10 'd');
  check_int "adding d evicts one" 1 (evictions ());
  check "LRU victim b evicted" true (Cache.find c ~key:"b" ~deps:[] = None);
  check "recently used a survives" true (Cache.find c ~key:"a" ~deps:[] <> None);
  check "newest d present" true (Cache.find c ~key:"d" ~deps:[] <> None);
  let s = Cache.stats c in
  check_int "one eviction" 1 s.Cache.evictions;
  check "byte budget holds" true (s.Cache.bytes <= 30);
  (* a payload alone above the budget is not stored *)
  Cache.add c ~key:"huge" ~deps:[] (String.make 100 'h');
  check_int "oversized add evicts nothing" 1 (evictions ());
  check "oversized payload not stored" true
    (Cache.find c ~key:"huge" ~deps:[] = None);
  (* disabled cache: every lookup misses, add is a no-op *)
  let off = Cache.create ~max_bytes:0 in
  Cache.add off ~key:"k" ~deps:[] "p";
  check_int "disabled add is a no-op" 0 (Cache.stats off).Cache.entries;
  check "disabled cache never hits" true (Cache.find off ~key:"k" ~deps:[] = None);
  check "disabled reports disabled" false (Cache.enabled off)

let test_cache_invalidate_table () =
  let c = Cache.create ~max_bytes:10_000 in
  Cache.add c ~key:"q1" ~deps:[ ("works", 1) ] "p1";
  Cache.add c ~key:"q2" ~deps:[ ("works", 1); ("emp", 1) ] "p2";
  Cache.add c ~key:"q3" ~deps:[ ("emp", 1) ] "p3";
  check_int "two entries dropped" 2 (Cache.invalidate_table c "WORKS");
  check "q3 survives" true (Cache.find c ~key:"q3" ~deps:[ ("emp", 1) ] <> None);
  check_int "entries after" 1 (Cache.stats c).Cache.entries

(* ---- per-table version counters ---- *)

let test_database_versions () =
  let db = Database.create () in
  check_int "unknown name is version 0" 0 (Database.version db "t");
  let schema = Schema.make [ Schema.attr "x" Value.TInt ] in
  let row n = Tuple.of_array [| Value.Int n |] in
  Database.add_table db "t" (Table.of_array schema [| row 1 |]);
  check_int "load bumps" 1 (Database.version db "t");
  Database.append_rows db "t" [ row 2 ];
  check_int "insert bumps" 2 (Database.version db "t");
  Database.replace_rows db "t" ~deleted:[| 0 |] [| row 9 |];
  check_int "update bumps" 3 (Database.version db "t");
  check_int "case-insensitive" 3 (Database.version db "T");
  Database.remove_table db "t";
  check_int "drop bumps, never resets" 4 (Database.version db "t");
  Database.add_table db "t" (Table.of_array schema [| row 1 |]);
  check_int "reload continues monotone" 5 (Database.version db "t")

(* ---- middleware epoch (prepared-plan staleness signal) ---- *)

let test_middleware_epoch () =
  let m = M.create () in
  let e0 = M.epoch m in
  ignore (M.execute m "CREATE TABLE ee (x int)");
  let e1 = M.epoch m in
  check "DDL bumps the epoch" true (e1 > e0);
  ignore (M.execute m "INSERT INTO ee VALUES (1)");
  let e2 = M.epoch m in
  check "DML bumps the epoch" true (e2 > e1);
  ignore (M.query m "SELECT x FROM ee");
  check_int "queries leave the epoch unchanged" e2 (M.epoch m);
  let schema = Schema.make [ Schema.attr "x" Value.TInt ] in
  Database.add_table (M.database m) "direct" (Table.of_array schema [||]);
  check "direct database mutation bumps the epoch" true (M.epoch m > e2)

(* a session's plan for [sql], parsed here as the server parses it *)
let session_plan s m sql = Session.prepared s m sql (Tkr_sql.Parser.statement sql)

let one_session () =
  let mgr = Session.manager ~max_sessions:1 in
  (mgr, Option.get (Session.open_session mgr))

let outcome mgr name = List.assoc name (Session.outcomes mgr)

(* a rejected statement writes nothing, so the epoch stays and a
   session keeps using the plan it prepared before; an accepted INSERT
   inside the time bounds keeps it too (the optimizer's plan is
   unchanged), one that widens them makes a new one *)
let test_rejected_insert_keeps_plans () =
  let m = M.create () in
  ignore
    (M.execute_script m
       "CREATE TABLE rj (x int, b int, e int) PERIOD (b, e); INSERT INTO rj \
        VALUES (1, 0, 10)");
  let _, s = one_session () in
  let q = "SEQ VT (SELECT x FROM rj)" in
  let p = session_plan s m q in
  let e = M.epoch m in
  (match M.execute m "INSERT INTO rj VALUES (2, NULL, 3)" with
  | _ -> Alcotest.fail "expected TKR026"
  | exception M.Error _ -> ());
  check_int "rejected INSERT keeps the epoch" e (M.epoch m);
  check "session reuses its plan" true (session_plan s m q == p);
  ignore (M.execute m "INSERT INTO rj VALUES (2, 0, 3)");
  check "an INSERT inside the bounds keeps the plan" true (session_plan s m q == p);
  ignore (M.execute m "INSERT INTO rj VALUES (3, 0, 30)");
  check "an INSERT widening the bounds re-prepares" true (session_plan s m q != p)

(* one shape serves every point: a prepare, then binds; an in-bounds
   write keeps its plans; bound widening and DDL prepare it afresh *)
let test_session_shape_outcomes () =
  let m = M.create () in
  ignore
    (M.execute_script m
       "CREATE TABLE so (x int, b int, e int) PERIOD (b, e); INSERT INTO so \
        VALUES (1, 0, 100), (2, 50, 80)");
  let mgr, s = one_session () in
  let read t = session_plan s m (Printf.sprintf "SEQ VT AS OF %d (SELECT x FROM so)" t) in
  let outcomes () = List.map snd (Session.outcomes mgr) in
  let p7 = read 7 in
  List.iter (fun t -> ignore (read t)) [ 60; 99; 0; 100; -1 ];
  Alcotest.(check (list int)) "one prepare, five binds" [ 1; 5; 0 ] (outcomes ());
  check "a known point is a hit" true (read 7 == p7);
  ignore (M.execute m "INSERT INTO so VALUES (3, 10, 20)");
  check "an in-bounds INSERT keeps the plan" true (read 7 == p7);
  ignore (read 15);
  ignore (M.execute m "UPDATE so FOR PORTION OF PERIOD FROM 5 TO 9 SET x = 4 WHERE x = 1");
  ignore (M.execute m "DELETE FROM so FOR PORTION OF PERIOD FROM 90 TO 95 WHERE x = 1");
  ignore (read 16);
  Alcotest.(check (list int)) "in-bounds DML: binds and hits only" [ 1; 7; 2 ]
    (outcomes ());
  check_int "every point holds its plan" 8 (Session.prepared_count s);
  ignore (M.execute m "INSERT INTO so VALUES (4, 10, 200)");
  check "bound widening re-prepares" true (read 7 != p7);
  check_int "prepares after bound widening" 2 (outcome mgr "prepare");
  check_int "the stale shape's plans are gone" 1 (Session.prepared_count s);
  ignore (M.execute m "CREATE TABLE other (y int)");
  ignore (read 7);
  check_int "prepares after DDL" 3 (outcome mgr "prepare");
  (* a statement without a point is a shape of its own *)
  ignore (session_plan s m "SEQ VT (SELECT x FROM so)");
  ignore (session_plan s m "SELECT x FROM so");
  check_int "each unpointed text prepares once" 5 (outcome mgr "prepare")

(* a session holds at most [Session.max_plans] plans however many points
   it reads, and drops the one used longest ago *)
let test_session_prepared_bounded () =
  let m = M.create () in
  ignore
    (M.execute_script m
       "CREATE TABLE sb (x int, b int, e int) PERIOD (b, e); INSERT INTO sb \
        VALUES (1, 0, 1000)");
  let mgr, s = one_session () in
  let read t =
    session_plan s m (Printf.sprintf "SEQ VT AS OF %d (SELECT x FROM sb)" t)
  in
  let hot = read 0 in
  for t = 1 to 600 do
    ignore (read t);
    check "a hot point stays" true (read 0 == hot);
    check "the session stays capped" true (Session.prepared_count s <= Session.max_plans);
    if t mod 100 = 0 then
      ignore (M.execute m (Printf.sprintf "INSERT INTO sb VALUES (%d, 0, 1000)" t))
  done;
  check_int "full, at the cap" Session.max_plans (Session.prepared_count s);
  check_int "one shape, prepared once" 1 (outcome mgr "prepare");
  (* points of other shapes make room the same way *)
  for t = 1 to 300 do
    ignore (session_plan s m (Printf.sprintf "SEQ VT AS OF %d (SELECT x AS y FROM sb)" t))
  done;
  check_int "still at the cap" Session.max_plans (Session.prepared_count s)

(* ---- shapes: a bound plan is the plan prepare makes ---- *)

(* the AS OF reads of the benchmark's serve and writes workloads *)
let bench_read_shapes =
  [
    "SELECT d.dept_no, s.emp_no, s.salary FROM dept_emp d, salaries s WHERE \
     d.emp_no = s.emp_no";
    "SELECT d.dept_no, avg(s.salary) AS avg_salary FROM dept_emp d, salaries \
     s WHERE d.emp_no = s.emp_no GROUP BY d.dept_no";
    "SELECT m.dept_no FROM dept_manager m, salaries s WHERE m.emp_no = \
     s.emp_no AND s.salary > 70000";
    "SELECT emp_no FROM employees EXCEPT ALL SELECT emp_no FROM dept_manager";
    "SELECT title, count(*) AS n FROM titles GROUP BY title";
    "SELECT d.dept_no, count(*) AS n FROM titles t, dept_emp d WHERE t.emp_no \
     = d.emp_no GROUP BY d.dept_no";
    "SELECT t.title, avg(s.salary) AS pay FROM salaries s, titles t WHERE \
     s.emp_no = t.emp_no GROUP BY t.title";
  ]

(* the inner query of an employee workload text [SEQ VT (q)] *)
let inner_of sql =
  let pre = "SEQ VT (" in
  let n = String.length pre in
  check "an employee query is SEQ VT (...)" true (String.sub sql 0 n = pre);
  String.sub sql n (String.length sql - n - 1)

let as_of_inners () =
  List.map (fun (_, sql) -> inner_of sql) Q.employee @ bench_read_shapes

(* Reads through one session at the points around the current time
   bounds and every point read before, with writes in between that keep
   the bounds, widen them and change the schema: every plan the session returns must be the plan a
   fresh prepare makes at the same pinned value — the same final plan,
   output schema, tables, cache key and fingerprint, and the same
   result bytes. *)
(* the fused check ({!Tkr_check.Check.logical},
   {!Tkr_check.Check.physical}) gives the diagnostics and the
   pruned plan of the two walks it replaced, over [plan] at [m]'s
   pinned value, with the environments a bind seeds *)
let fused_check_agrees (m : M.t) plan =
  let module Check = Tkr_check.Check in
  let module Absint = Tkr_check.Absint in
  let db = M.database m in
  let lookup n = if Database.mem db n then Some (Database.schema_of db n) else None in
  let env temporal =
    Absint.env ~temporal ~is_period:(Database.is_period db)
      ~time_bounds:(Database.time_bounds db) lookup
  in
  let module Typecheck = Tkr_check.Typecheck in
  let module Plan_check = Tkr_check.Plan_check in
  let two_walks plan_check env =
    ( Typecheck.algebra ~lookup plan @ plan_check plan @ Absint.diagnose env plan,
      Absint.prune env plan )
  in
  Check.logical ~absint:(env false) ~lookup plan
  = two_walks Plan_check.logical (env false)
  && Check.physical ~absint:(env true) ~lookup plan
     = two_walks (Plan_check.physical ~lookup) (env true)

let check_binds_match_prepare label (m : M.t) =
  let mgr, s = one_session () in
  let inners = as_of_inners () in
  let step = ref 0 and seen = ref [] in
  let reads () =
    incr step;
    let tmin, tmax = Database.time_bounds (M.database m) in
    (* this value's edge points, and every point read before *)
    seen :=
      List.sort_uniq compare
        ([ tmin - 1; tmin; tmin + ((tmax - tmin) * (1 + !step) / 9); tmax - 1; tmax ]
        @ !seen);
    let points = !seen in
    let texts =
      List.concat_map
        (fun inner ->
          List.map (fun t -> Printf.sprintf "SEQ VT AS OF %d (%s)" t inner) points)
        inners
      @ [
          Q.lookup "join-1" Q.employee;
          Q.lookup "agg-2" Q.employee;
          "SELECT count(*) AS n FROM titles";
        ]
    in
    List.iter
      (fun sql ->
        let pm = M.pin m in
        let what = Printf.sprintf "%s, step %d: %s" label !step sql in
        let got = session_plan s pm sql in
        let fresh = M.prepare pm sql in
        let _, s' = one_session () in
        let want = session_plan s' pm sql in
        let bytes p = Wire.body_to_payload (Wire.Rows (M.run_prepared pm p)) in
        let g = got.Session.prepared in
        check ("plan: " ^ what) true (g.M.plan = fresh.M.plan);
        check ("out_schema: " ^ what) true (g.M.out_schema = fresh.M.out_schema);
        Alcotest.(check (list string)) ("tables: " ^ what) fresh.M.tables g.M.tables;
        check_str ("cache key: " ^ what) want.Session.key got.Session.key;
        check_str ("fingerprint: " ^ what) want.Session.fp got.Session.fp;
        check_str ("result bytes: " ^ what) (bytes fresh) (bytes g);
        check ("one absint walk: " ^ what) true (fused_check_agrees pm fresh.M.plan))
      texts
  in
  let write sql = ignore (M.execute m sql) in
  reads ();
  write "INSERT INTO salaries VALUES (3, 61000, 100, 140)";
  reads ();
  write "UPDATE salaries FOR PORTION OF PERIOD FROM 50 TO 90 SET salary = salary + 7 WHERE emp_no = 5";
  write "DELETE FROM titles FOR PORTION OF PERIOD FROM 20 TO 60 WHERE emp_no = 2";
  reads ();
  (* rows only, but enough to turn join orders around *)
  let probe () =
    let inner = inner_of (Q.lookup "join-1" Q.employee) in
    (M.prepare m (Printf.sprintf "SEQ VT AS OF 100 (%s)" inner)).M.plan
  in
  let before = probe () in
  write "DELETE FROM salaries WHERE emp_no > 3";
  check (label ^ ": the DELETE turned a join order around") true (probe () <> before);
  reads ();
  let _, tmax = Database.time_bounds (M.database m) in
  write (Printf.sprintf "INSERT INTO titles VALUES (4, 'Staff', 10, %d)" (tmax + 50));
  reads ();
  write "CREATE TABLE extra_t (x int)";
  reads ();
  write "DROP TABLE extra_t";
  reads ();
  check (label ^ ": shapes were bound, not just prepared") true
    (outcome mgr "bind" > outcome mgr "prepare")

let test_session_binds_match_prepare () =
  let db () = W.generate { (W.scaled 20) with W.tmax = 300 } in
  check_binds_match_prepare "vec" (M.create ~db:(db ()) ());
  check_binds_match_prepare "row" (M.create ~engine:M.Row ~db:(db ()) ());
  check_binds_match_prepare "index and prune off"
    (M.create ~index:false ~prune:false ~db:(db ()) ())

(* Plan keys, over every employee and TPC-H query, as written and AS
   OF points inside and at the edges of the time bounds, and near-twins
   that rendered alike before (an int literal against a float one) or
   differ in one output name,
   one ordering direction or a LIMIT: two statements' keys are equal
   exactly when their final plans and post-plan shapes (ordering, limit,
   snapshot flag) are, and so are their fingerprints. *)
let test_plan_keys () =
  let tests =
    [
      ( W.generate { (W.scaled 20) with W.tmax = 300 },
        Q.employee,
        [
          "SEQ VT AS OF 10 (SELECT emp_no FROM salaries WHERE salary = 1)";
          "SEQ VT AS OF 10 (SELECT emp_no FROM salaries WHERE salary = 1.0)";
          "SEQ VT AS OF 10 (SELECT emp_no AS e FROM salaries)";
          "SEQ VT AS OF 10 (SELECT emp_no AS f FROM salaries)";
          "SEQ VT (SELECT emp_no FROM salaries) ORDER BY emp_no";
          "SEQ VT (SELECT emp_no FROM salaries) ORDER BY emp_no DESC";
          "SEQ VT (SELECT emp_no FROM salaries) ORDER BY emp_no LIMIT 3";
          "SEQ VT (SELECT emp_no FROM salaries) ORDER BY emp_no LIMIT 4";
          "SELECT 1 AS a FROM titles";
          "SELECT 2 AS a FROM titles";
          "SELECT 1.0 AS a FROM titles";
          "SELECT emp_no FROM salaries";
          "SEQ VT (SELECT emp_no FROM salaries)";
        ] );
      ( Tkr_workload.Tpcbih.generate { Tkr_workload.Tpcbih.default with scale = 0.01 },
        Q.tpch,
        [] );
    ]
  in
  let shape (p : M.prepared) = (p.M.plan, p.M.order_by, p.M.limit, p.M.snapshot) in
  let plans =
    List.concat_map
      (fun (db, queries, twins) ->
        let m = M.pin (M.create ~db ()) in
        let _, s = one_session () in
        let tmin, tmax = Database.time_bounds db in
        let at_points sql =
          let n = String.length "SEQ VT (" in
          if String.length sql > n && String.sub sql 0 n = "SEQ VT (" then
            List.map
              (fun t -> Printf.sprintf "SEQ VT AS OF %d (%s" t (String.sub sql n (String.length sql - n)))
              [ tmin - 1; tmin; (tmin + tmax) / 2; tmax - 1 ]
          else []
        in
        let texts = List.concat_map (fun (_, sql) -> sql :: at_points sql) queries @ twins in
        List.map
          (fun sql ->
            let p = session_plan s m sql in
            (sql, shape p.Session.prepared, p))
          texts)
      tests
  in
  check "some plans share a key" true
    (List.exists
       (fun (a, _, p) -> List.exists (fun (b, _, q) -> a <> b && p.Session.key = q.Session.key) plans)
       plans);
  List.iter
    (fun (a, sa, p) ->
      List.iter
        (fun (b, sb, q) ->
          let same = compare sa sb = 0 in
          check (Printf.sprintf "key: %s / %s" a b) same (String.equal p.Session.key q.Session.key);
          check (Printf.sprintf "fp: %s / %s" a b) same (String.equal p.Session.fp q.Session.fp))
        plans)
    plans

(* ---- admission control ---- *)

(* poll [cond] every 10 ms for up to [secs] seconds *)
let eventually ?(secs = 5.) cond =
  let deadline = Unix.gettimeofday () +. secs in
  let rec go () =
    cond () || (Unix.gettimeofday () < deadline && (Thread.delay 0.01; go ()))
  in
  go ()

(* run [f] on its own thread: [Some v] when it returns within [secs] *)
let within ~secs f =
  let result = Atomic.make None in
  ignore (Thread.create (fun () -> Atomic.set result (Some (f ()))) ());
  if eventually ~secs (fun () -> Atomic.get result <> None) then
    Atomic.get result
  else None

let test_admission_busy_and_drain () =
  let g = Admission.create ~slots:1 ~depth:1 in
  check "a free slot is granted" true (Admission.acquire g = `Granted);
  Admission.release g;
  check "a freed slot admits" true (Admission.acquire g = `Granted);
  (* one caller waits for the held slot: the high-water mark *)
  let second = Atomic.make None in
  let th =
    Thread.create (fun () -> Atomic.set second (Some (Admission.acquire g))) ()
  in
  check "the caller waits" true (eventually (fun () -> Admission.waiting g = 1));
  check "high-water rejects" true (Admission.acquire g = `Busy);
  Admission.release g;
  Thread.join th;
  check "the waiter got the slot" true (Atomic.get second = Some `Granted);
  Admission.drain g;
  check "draining rejects new work" true (Admission.acquire g = `Draining);
  Admission.release g;
  check_int "no slot held" 0 (Admission.held g)

(* work that already holds or awaits a slot when the drain starts runs
   to completion, and [await_idle] returns only after it *)
let test_admission_drain_lets_waiting_work_finish () =
  let g = Admission.create ~slots:1 ~depth:4 in
  check "slot taken" true (Admission.acquire g = `Granted);
  let waited = Atomic.make None in
  let th =
    Thread.create (fun () -> Atomic.set waited (Some (Admission.acquire g))) ()
  in
  check "the caller waits" true (eventually (fun () -> Admission.waiting g = 1));
  Admission.drain g;
  let idle = Atomic.make false in
  let idler =
    Thread.create (fun () -> Admission.await_idle g; Atomic.set idle true) ()
  in
  Admission.release g;
  Thread.join th;
  check "the waiting caller still gets its slot" true
    (Atomic.get waited = Some `Granted);
  Thread.delay 0.05;
  check "not idle while the slot is held" false (Atomic.get idle);
  Admission.release g;
  Thread.join idler;
  check "idle once every slot is back" true (Atomic.get idle)

(* ---- middleware hammered from four domains ---- *)

let hammer_queries =
  [ Q.lookup "join-1" Q.employee; Q.lookup "agg-1" Q.employee ]

let test_middleware_domain_hammer () =
  let m = M.create ~db:(W.generate { (W.scaled 40) with W.tmax = 600 }) () in
  (* serial reference results, computed before the hammer *)
  let expected = List.map (fun sql -> M.query m sql) hammer_queries in
  let executions () =
    Tkr_obs.Metrics.(histogram_observations (histogram (M.metrics m) "execute_us"))
  in
  let runs_before = executions () in
  let per_domain = 5 in
  let mismatches = Atomic.make 0 in
  let work () =
    List.iter2
      (fun sql want ->
        let p = M.prepare m sql in
        for _ = 1 to per_domain do
          let got = M.run_prepared m p in
          if
            not
              (Array.length (Table.rows got) = Array.length (Table.rows want)
              && Array.for_all2 Tuple.equal (Table.rows got) (Table.rows want))
          then Atomic.incr mismatches
        done)
      hammer_queries expected
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  List.iter Domain.join domains;
  check_int "every concurrent result matches the serial reference" 0
    (Atomic.get mismatches);
  (* the registry histogram is lock-guarded: no lost observations under
     contention *)
  check_int "execute_us counted every execution"
    (runs_before + (4 * per_domain * List.length hammer_queries))
    (executions ())

let test_middleware_dml_hammer () =
  let m = M.create () in
  ignore
    (M.execute_script m
       {|CREATE TABLE h0 (x int); CREATE TABLE h1 (x int);
         CREATE TABLE q0 (x int); INSERT INTO q0 VALUES (1), (2), (3);|});
  let inserts = 25 in
  let writer k () =
    for i = 1 to inserts do
      ignore
        (M.execute m (Printf.sprintf "INSERT INTO h%d VALUES (%d)" k i))
    done
  in
  let errors = Atomic.make 0 in
  let reader () =
    for _ = 1 to 40 do
      match M.query m "SELECT x FROM q0" with
      | t -> if Table.cardinality t <> 3 then Atomic.incr errors
      | exception _ -> Atomic.incr errors
    done
  in
  let domains =
    [ Domain.spawn (writer 0); Domain.spawn (writer 1); Domain.spawn reader;
      Domain.spawn reader ]
  in
  List.iter Domain.join domains;
  check_int "readers always saw a consistent catalog" 0 (Atomic.get errors);
  check_int "writer 0 rows all landed" inserts
    (Table.cardinality (M.query m "SELECT x FROM h0"));
  check_int "writer 1 rows all landed" inserts
    (Table.cardinality (M.query m "SELECT x FROM h1"));
  check "versions bumped once per DML" true
    (Database.version (M.database m) "h0" >= inserts)

(* qcheck: a random mix of concurrent per-domain inserts and shared-table
   queries keeps the middleware consistent — each domain's private table
   ends with exactly its own inserts, and shared reads never tear *)
let qcheck_op_mix =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"concurrent op mix keeps middleware consistent"
       QCheck.(list_of_size (Gen.int_range 1 12) (QCheck.int_range 0 2))
       (fun ops ->
         let m = M.create () in
         ignore
           (M.execute_script m
              {|CREATE TABLE s (x int); INSERT INTO s VALUES (10), (20);|});
         let n_domains = 4 in
         List.iteri
           (fun k _ ->
             ignore (M.execute m (Printf.sprintf "CREATE TABLE p%d (x int)" k)))
           (List.init n_domains Fun.id);
         let bad = Atomic.make false in
         let work k () =
           let mine = ref 0 in
           List.iter
             (fun op ->
               match op with
               | 0 ->
                   incr mine;
                   ignore
                     (M.execute m
                        (Printf.sprintf "INSERT INTO p%d VALUES (%d)" k !mine))
               | 1 ->
                   if Table.cardinality (M.query m "SELECT x FROM s") <> 2 then
                     Atomic.set bad true
               | _ -> (
                   match
                     M.query m (Printf.sprintf "SELECT x FROM p%d" k)
                   with
                   | t ->
                       if Table.cardinality t <> !mine then Atomic.set bad true
                   | exception _ -> Atomic.set bad true))
             ops;
           if
             Table.cardinality (M.query m (Printf.sprintf "SELECT x FROM p%d" k))
             <> !mine
           then Atomic.set bad true
         in
         let domains = List.init n_domains (fun k -> Domain.spawn (work k)) in
         List.iter Domain.join domains;
         not (Atomic.get bad)))

(* ---- end-to-end: server + client ---- *)

(* the queries the acceptance gate cares about: EXCEPT ALL (bag
   difference) and aggregations, plus a join *)
let e2e_queries =
  List.map
    (fun n -> (n, Q.lookup n Q.employee))
    [ "join-1"; "agg-1"; "agg-3"; "diff-1"; "diff-2" ]

let with_server ?(cache_mb = 16) ?engine ?stream f =
  let m =
    M.create ?engine ~db:(W.generate { (W.scaled 40) with W.tmax = 600 }) ()
  in
  let srv =
    Server.start
      ~config:
        {
          Server.default_config with
          port = 0;
          cache_mb;
          max_sessions = 16;
          workers = 4;
        }
      ?stream m
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f m srv)

let render = function
  | M.Rows t -> Table.to_text ~max_rows:1000 t
  | M.Done msg -> msg ^ "\n"

let render_rsp (rsp : Wire.response) =
  match rsp.Wire.body with
  | Ok (Wire.Rows t) -> Table.to_text ~max_rows:1000 t
  | Ok (Wire.Message msg) -> msg ^ "\n"
  | Error e -> Alcotest.fail ("unexpected server error: " ^ e.Wire.message)

let test_e2e_byte_identity_cached () =
  with_server @@ fun m srv ->
  let expected = List.map (fun (_, sql) -> render (M.execute m sql)) e2e_queries in
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  List.iter2
    (fun (name, sql) want ->
      let first = Client.run_exn c sql in
      check (name ^ " first run not cached") false first.Wire.cached;
      check_str (name ^ " cold bytes") want (render_rsp first);
      let second = Client.run_exn c sql in
      check (name ^ " replay is a cache hit") true second.Wire.cached;
      check_str (name ^ " cached bytes identical") want (render_rsp second))
    e2e_queries expected;
  let s = Server.cache_stats srv in
  check "cache saw the hits" true (s.Cache.hits >= List.length e2e_queries)

let test_e2e_byte_identity_cache_off () =
  with_server ~cache_mb:0 @@ fun m srv ->
  let expected = List.map (fun (_, sql) -> render (M.execute m sql)) e2e_queries in
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  List.iter2
    (fun (name, sql) want ->
      let a = Client.run_exn c sql in
      let b = Client.run_exn c sql in
      check (name ^ " never cached") false (a.Wire.cached || b.Wire.cached);
      check_str (name ^ " bytes (1)") want (render_rsp a);
      check_str (name ^ " bytes (2)") want (render_rsp b))
    e2e_queries expected

(* 8 clients each run [queries] over [srv]; every reply must be the
   serial rendering [m] gives *)
let concurrent_clients m srv queries =
  let expected = List.map (fun (_, sql) -> render (M.execute m sql)) queries in
  let port = Server.port srv in
  let n_clients = 8 in
  let bad = Atomic.make 0 in
  let worker () =
    try
      Client.with_client ~port @@ fun c ->
      List.iter2
        (fun (_, sql) want ->
          if render_rsp (Client.run_exn c sql) <> want then Atomic.incr bad)
        queries expected
    with _ -> Atomic.incr bad
  in
  let threads = List.init n_clients (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  check_int "8 concurrent connections, all byte-identical" 0 (Atomic.get bad)

let test_e2e_concurrent_clients () =
  with_server @@ fun m srv -> concurrent_clients m srv e2e_queries

(* the row oracle behind the server, cache off: its results are made from
   rows, rendered from their columns and decoded into typed columns, and
   every reply must still be the default engine's serial bytes *)
let test_e2e_concurrent_clients_row () =
  with_server ~engine:M.Row ~cache_mb:0 @@ fun m srv ->
  concurrent_clients (M.create ~db:(M.database m) ()) srv Q.employee

let test_e2e_dml_invalidates () =
  with_server @@ fun _m srv ->
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  ignore (Client.run_exn c "CREATE TABLE kv (x int)");
  ignore (Client.run_exn c "INSERT INTO kv VALUES (1), (2)");
  let q = "SELECT x FROM kv" in
  let r1 = Client.run_exn c q in
  check "cold" false r1.Wire.cached;
  let r2 = Client.run_exn c q in
  check "warm" true r2.Wire.cached;
  ignore (Client.run_exn c "INSERT INTO kv VALUES (3)");
  let r3 = Client.run_exn c q in
  check "DML invalidated the entry" false r3.Wire.cached;
  (match r3.Wire.body with
  | Ok (Wire.Rows t) -> check_int "new row visible" 3 (Table.cardinality t)
  | _ -> Alcotest.fail "expected rows");
  let r4 = Client.run_exn c q in
  check "re-cached after recompute" true r4.Wire.cached;
  check_int "one invalidation recorded" 1
    (Server.cache_stats srv).Cache.invalidations

(* A session's cached prepared plan bakes catalog state: snapshot plans
   bake the time bounds of prepare time, AS OF timeslices bake schema
   arities.  After DML that extends the time bounds, or DROP+CREATE that
   changes a schema, re-executing the same statement text on the same
   connection must return the bytes a fresh preparation computes — the
   session must notice the stale plan and re-prepare. *)
let test_e2e_session_reprepare () =
  with_server @@ fun m srv ->
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  ignore (Client.run_exn c "CREATE TABLE ep (x int, b int, e int) PERIOD (b, e)");
  ignore (Client.run_exn c "INSERT INTO ep VALUES (1, 0, 10)");
  (* count-per-snapshot: the rewrite constructs whole-domain rows from
     the tmin/tmax of prepare time, so a stale plan is visibly wrong *)
  let agg = "SEQ VT (SELECT count(*) AS cnt FROM ep)" in
  let slice = "SEQ VT AS OF 5 (SELECT x FROM ep)" in
  check_str "snapshot agg before DML" (render (M.execute m agg))
    (render_rsp (Client.run_exn c agg));
  check_str "timeslice before DML" (render (M.execute m slice))
    (render_rsp (Client.run_exn c slice));
  (* extend the time domain well past the baked tmax *)
  ignore (Client.run_exn c "INSERT INTO ep VALUES (2, 5, 5000)");
  check_str "snapshot agg after time bounds moved (re-prepared)"
    (render (M.execute m agg))
    (render_rsp (Client.run_exn c agg));
  (* change the table's schema arity underneath the cached plans *)
  ignore (Client.run_exn c "DROP TABLE ep");
  ignore
    (Client.run_exn c "CREATE TABLE ep (x int, y int, b int, e int) PERIOD (b, e)");
  ignore (Client.run_exn c "INSERT INTO ep VALUES (7, 8, 0, 20)");
  check_str "snapshot agg after DROP+CREATE (re-prepared)"
    (render (M.execute m agg))
    (render_rsp (Client.run_exn c agg));
  check_str "timeslice after DROP+CREATE (re-prepared)"
    (render (M.execute m slice))
    (render_rsp (Client.run_exn c slice))

(* Pipelined requests on one connection: the server must execute them in
   arrival order (an INSERT is visible to the SELECT behind it) and reply
   in request order, with several execution slots *)
let test_e2e_pipelined_ordering () =
  with_server @@ fun _m srv ->
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:close @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Server.port srv));
  (match Wire.read_frame fd with
  | Some _ -> ()
  | None -> Alcotest.fail "no greeting");
  let send id stmt =
    Wire.write_frame fd
      (Json.to_string (Wire.request_to_json (Wire.request ~id stmt)))
  in
  let inserts = 10 in
  (* fire everything without reading a single response *)
  send 1 "CREATE TABLE pipe (x int)";
  for i = 1 to inserts do
    send (1 + i) (Printf.sprintf "INSERT INTO pipe VALUES (%d)" i)
  done;
  send (inserts + 2) "SELECT x FROM pipe";
  let read_rsp expect_id =
    match Wire.read_frame fd with
    | None -> Alcotest.fail "server closed mid-pipeline"
    | Some frame ->
        let rsp = Wire.response_of_string frame in
        check_int "responses arrive in request order" expect_id rsp.Wire.rsp_id;
        rsp
  in
  for i = 1 to inserts + 1 do
    match (read_rsp i).Wire.body with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("pipelined statement failed: " ^ e.Wire.message)
  done;
  match (read_rsp (inserts + 2)).Wire.body with
  | Ok (Wire.Rows t) ->
      check_int "pipelined SELECT sees every prior INSERT" inserts
        (Table.cardinality t)
  | Ok _ -> Alcotest.fail "expected rows"
  | Error e -> Alcotest.fail ("pipelined SELECT failed: " ^ e.Wire.message)

(* A statement sent over the wire is parsed on its own, on the
   middleware's parse counter: its EXPLAIN ANALYZE phase line reports
   that parse's time, not a script's. *)
let test_e2e_explain_parse_phase () =
  with_server @@ fun m srv ->
  let parsed () =
    Tkr_obs.Metrics.value
      (Tkr_obs.Metrics.counter (M.metrics m) "prepare_parse_ns")
  in
  let before = parsed () in
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  let text =
    render_rsp
      (Client.run_exn c
         "EXPLAIN ANALYZE (SEQ VT (SELECT count(*) AS cnt FROM salaries))")
  in
  let phase =
    List.find_opt
      (fun l -> String.starts_with ~prefix:"parse " l)
      (String.split_on_char '\n' text)
  in
  match phase with
  | None -> Alcotest.fail ("no phase line in:\n" ^ text)
  | Some line ->
      let ms =
        Scanf.sscanf_opt line "parse %f ms |" Fun.id
      in
      check ("parse phase is timed: " ^ line) true
        (match ms with Some ms -> ms > 0. | None -> false);
      check "the wire parse is on the parse counter" true (parsed () > before)

let test_e2e_error_codes () =
  with_server @@ fun _m srv ->
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  (match (Client.run c "SELEC nonsense").Wire.body with
  | Error { Wire.code = Wire.Parse_error; _ } -> ()
  | _ -> Alcotest.fail "expected PARSE_ERROR");
  (match (Client.run c "SELECT x FROM missing").Wire.body with
  | Error { Wire.code = Wire.Runtime_error; _ } -> ()
  | _ -> Alcotest.fail "expected RUNTIME_ERROR");
  (* an integer literal past max_int is a lex diagnostic, not a raw
     [Failure] carried as a runtime error *)
  (match (Client.run c "SELECT 99999999999999999999 AS x FROM missing").Wire.body with
  | Error { Wire.code = Wire.Parse_error; message } ->
      check ("lex diagnostic: " ^ message) true
        (String.starts_with ~prefix:"error[TKR005] at 1:8: integer literal" message)
  | _ -> Alcotest.fail "expected PARSE_ERROR for an out-of-range literal");
  (* deadline 0: always already expired when the slot is granted *)
  match (Client.run ~deadline_ms:0 c "SELECT x FROM missing").Wire.body with
  | Error { Wire.code = Wire.Deadline_exceeded; _ } -> ()
  | _ -> Alcotest.fail "expected DEADLINE_EXCEEDED"

let test_e2e_session_limit () =
  let m = M.create () in
  let srv =
    Server.start
      ~config:{ Server.default_config with port = 0; max_sessions = 1 }
      m
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  Client.with_client ~port:(Server.port srv) @@ fun _c1 ->
  match Client.connect ~port:(Server.port srv) () with
  | c2 ->
      Client.close c2;
      Alcotest.fail "expected SESSION_LIMIT rejection"
  | exception Client.Server_error { Wire.code = Wire.Session_limit; _ } -> ()

let test_e2e_graceful_stop () =
  let m = M.create () in
  let srv = Server.start ~config:{ Server.default_config with port = 0 } m in
  let c = Client.connect ~port:(Server.port srv) () in
  ignore (Client.run_exn c "CREATE TABLE g (x int)");
  (* stop with a connection open: accepted work finished, reader woken *)
  Server.stop srv;
  check "stop is idempotent" true (Server.stopping srv);
  Server.stop srv;
  (match Client.run c "SELECT x FROM g" with
  | _ -> ()
  | exception _ -> () (* connection torn down by drain is fine *));
  Client.close c

(* ---- telemetry e2e: every request's log lines carry the trace id the
   response echoed, the request_finish lines say the cache dispositions,
   invalidations and epochs, and the scrape commands answer on a live
   connection ---- *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let jstr j key =
  match Option.bind (Json.member key j) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "missing string field %s" key)

let msg_body (rsp : Wire.response) =
  match rsp.Wire.body with
  | Ok (Wire.Message m) -> m
  | _ -> Alcotest.fail "expected a message body"

let test_e2e_telemetry () =
  let lock = Mutex.create () in
  let events = ref [] in
  let stream =
    Record.create
      ~log:
        (Jsonl.Fn
           (fun j ->
             Mutex.lock lock;
             events := j :: !events;
             Mutex.unlock lock))
      ()
  in
  let miss_id = ref "" and hit_id = ref "" in
  (with_server ~stream @@ fun _m srv ->
   Client.with_client ~port:(Server.port srv) @@ fun c ->
   (* a client-supplied trace id echoes on the response *)
   let r1 = Client.run_exn ~trace_id:"cli-1" c "CREATE TABLE kv (x int)" in
   check "client trace id echoed" true (r1.Wire.rsp_trace_id = Some "cli-1");
   ignore (Client.run_exn c "INSERT INTO kv VALUES (1), (2)");
   let q = "SELECT x FROM kv" in
   let miss = Client.run_exn c q in
   let hit = Client.run_exn c q in
   check "warm replay cached" true hit.Wire.cached;
   (* the server mints ids when the client sends none *)
   (match (miss.Wire.rsp_trace_id, hit.Wire.rsp_trace_id) with
   | Some a, Some b ->
       miss_id := a;
       hit_id := b;
       check "generated ids distinct" true (a <> b)
   | _ -> Alcotest.fail "expected server-generated trace ids");
   (* invalidate the cached entry so the log sees it *)
   ignore (Client.run_exn c "INSERT INTO kv VALUES (3)");
   check "post-DML replay recomputes" false (Client.run_exn c q).Wire.cached;
   (* scrape surface, all on the same connection *)
   let metrics = msg_body (Client.run_exn c "METRICS") in
   List.iter
     (fun needle -> check ("metrics has " ^ needle) true (contains metrics needle))
     [
       "# TYPE serve_queue_depth gauge";
       "serve_inflight_requests";
       "serve_sessions 1";
       "serve_cache_entries";
       "serve_cache_bytes";
       "uptime_seconds";
       "tkr_build_info";
       "tkr_idx_built";
       "tkr_idx_probes";
       "# TYPE tkr_idx_candidates gauge\ntkr_idx_candidates ";
       "# EOF\n";
     ];
   let health = Json.of_string (msg_body (Client.run_exn c "health")) in
   check_str "health ready" "ready" (jstr health "status");
   let stats = Json.of_string (msg_body (Client.run_exn c "STATS")) in
   let requests =
     match Option.bind (Json.member "requests" stats) Json.to_int_opt with
     | Some n -> n
     | None -> Alcotest.fail "stats missing requests"
   in
   check "stats counted the requests" true (requests >= 5);
   check "stats have latency quantiles" true
     (Json.member "latency_us" stats <> None);
   match Json.member "index" stats with
   | Some idx ->
       check "stats index enabled flag" true
         (Json.member "enabled" idx = Some (Json.Bool true));
       check "stats index counters present" true
         (Json.member "built" idx <> None && Json.member "probes" idx <> None)
   | None -> Alcotest.fail "stats missing index object");
  (* the server is stopped: the log is complete *)
  let evs = List.rev !events in
  let by name = List.filter (fun j -> jstr j "event" = name) evs in
  let ids name = List.sort_uniq compare (List.map (fun j -> jstr j "trace_id") (by name)) in
  check "conn_open logged" true (by "conn_open" <> []);
  check "conn_close logged" true (by "conn_close" <> []);
  (* every request_start pairs with a request_finish on the same id, and
     the ids the responses carried are among them *)
  Alcotest.(check (list string))
    "start/finish ids pair" (ids "request_start") (ids "request_finish");
  let finish_ids = ids "request_finish" in
  List.iter
    (fun id -> check ("response id " ^ id ^ " logged") true (List.mem id finish_ids))
    [ "cli-1"; !miss_id; !hit_id ];
  (* the SELECT's finish lines: a miss, a hit on the same plan
     fingerprint, then a miss on a changed kv version (the invalidation) *)
  let finish = by "request_finish" in
  let traced id = List.find (fun j -> jstr j "trace_id" = id) finish in
  let miss = traced !miss_id and hit = traced !hit_id in
  check_str "miss disposition" "miss" (jstr miss "disp");
  check_str "hit disposition" "hit" (jstr hit "disp");
  check_str "fingerprints match" (jstr miss "fp") (jstr hit "fp");
  (* the read after the INSERT: the same fingerprint on a moved kv *)
  (match
     List.filter
       (fun j ->
         jstr j "fp" = jstr miss "fp"
         && Json.member "deps" j <> Json.member "deps" miss)
       finish
   with
  | [ j ] -> check_str "the invalidated read missed" "miss" (jstr j "disp")
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected one read on a moved kv, got %d"
           (List.length l)));
  (* each write's line carries the epoch it published *)
  let epochs =
    List.filter_map
      (fun j ->
        if jstr j "disp" = "bypass" then
          Option.bind (Json.member "epoch" j) Json.to_int_opt
        else None)
      finish
  in
  check_int "three writes" 3 (List.length epochs);
  check "writes carry rising epochs" true (List.sort_uniq compare epochs = epochs);
  (match by "drain" with
  | [ d ] -> check_str "drain reason" "stop" (jstr d "reason")
  | _ -> Alcotest.fail "expected one drain event")

let test_e2e_no_trace_when_tel_off () =
  with_server @@ fun _m srv ->
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  ignore (Client.run_exn c "CREATE TABLE plain (x int)");
  let r = Client.run_exn c "SELECT x FROM plain" in
  check "no trace id minted when telemetry is off" true
    (r.Wire.rsp_trace_id = None);
  (* a client-supplied id still echoes, telemetry or not *)
  let r2 = Client.run_exn ~trace_id:"want-this" c "SELECT x FROM plain" in
  check "client id echoes without telemetry" true
    (r2.Wire.rsp_trace_id = Some "want-this")

(* METRICS renders the cache counters from the cache itself: after a
   miss, a hit and a miss that evicts, each serve_cache_*_total sample
   equals the STATS cache field *)
let test_e2e_cache_metrics_match_stats () =
  with_server ~cache_mb:1 @@ fun m srv ->
  (* two results of over half a MiB each cannot share a 1 MiB cache *)
  let schema =
    Schema.make [ Schema.attr "x" Value.TInt; Schema.attr "y" Value.TInt ]
  in
  let row i = Tuple.of_array [| Value.Int i; Value.Int (i * 7) |] in
  Database.add_table (M.database m) "big"
    (Table.of_array schema (Array.init 60_000 row));
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  List.iter
    (fun q -> ignore (Client.run_exn c q))
    [ "SELECT x, y FROM big"; "SELECT x, y FROM big"; "SELECT y, x FROM big" ];
  let stats = Json.of_string (msg_body (Client.run_exn c "STATS")) in
  let cache = Option.get (Json.member "cache" stats) in
  let field name =
    Option.get (Option.bind (Json.member name cache) Json.to_int_opt)
  in
  let metrics =
    String.split_on_char '\n' (msg_body (Client.run_exn c "METRICS"))
  in
  List.iter
    (fun f ->
      let want = field f in
      let name = "serve_cache_" ^ f ^ "_total" in
      check ("# TYPE " ^ name) true
        (List.mem ("# TYPE " ^ name ^ " counter") metrics);
      check_str name (Printf.sprintf "%s %d" name want)
        (List.find (fun l -> String.starts_with ~prefix:(name ^ " ") l) metrics))
    [ "hits"; "misses"; "evictions" ];
  check_int "one hit" 1 (field "hits");
  check "an eviction happened" true (field "evictions" >= 1);
  check "no doubled suffix" false
    (List.exists (fun l -> contains l "_total_total") metrics)

(* the sessions' plan outcomes in STATS and METRICS: one shape read at
   two points, an in-bounds INSERT, then a third point and the first
   again *)
let test_e2e_plan_outcomes () =
  with_server @@ fun _m srv ->
  Client.with_client ~port:(Server.port srv) @@ fun c ->
  List.iter
    (fun q -> ignore (Client.run_exn c q))
    [
      "CREATE TABLE po (x int, b int, e int) PERIOD (b, e)";
      "INSERT INTO po VALUES (1, 0, 100)";
      "SEQ VT AS OF 10 (SELECT x FROM po)";
      "SEQ VT AS OF 20 (SELECT x FROM po)";
      "INSERT INTO po VALUES (2, 5, 50)";
      "SEQ VT AS OF 30 (SELECT x FROM po)";
      "SEQ VT AS OF 10 (SELECT x FROM po)";
    ];
  let stats = Json.of_string (msg_body (Client.run_exn c "STATS")) in
  let plans = Option.get (Json.member "plans" stats) in
  let field name = Option.get (Option.bind (Json.member name plans) Json.to_int_opt) in
  let metrics =
    String.split_on_char '\n' (msg_body (Client.run_exn c "METRICS"))
  in
  check "# TYPE serve_plans_total" true
    (List.mem "# TYPE serve_plans_total counter" metrics);
  List.iter
    (fun (outcome, want) ->
      check_int ("STATS plans." ^ outcome) want (field outcome);
      let sample = Printf.sprintf "serve_plans_total{outcome=\"%s\"} %d" outcome want in
      check ("METRICS " ^ sample) true (List.mem sample metrics))
    [ ("prepare", 1); ("bind", 2); ("hit", 1) ]

(* the latency histogram observes every finished request, errors and
   queued deadlines included, so STATS latency_us.count = requests *)
let test_e2e_latency_counts_every_request () =
  with_server @@ fun _m srv ->
  (Client.with_client ~port:(Server.port srv) @@ fun c ->
   ignore (Client.run_exn c "CREATE TABLE lat (x int)");
   (match (Client.run c "SELEC x").Wire.body with
   | Error { Wire.code = Wire.Parse_error; _ } -> ()
   | _ -> Alcotest.fail "expected PARSE_ERROR");
   match (Client.run ~deadline_ms:0 c "SELECT x FROM lat").Wire.body with
   | Error { Wire.code = Wire.Deadline_exceeded; _ } -> ()
   | _ -> Alcotest.fail "expected DEADLINE_EXCEEDED");
  (* the drain joins the connection threads: every request has been
     observed *)
  Server.stop srv;
  let stats = Server.stats_json srv in
  let int j key =
    match Option.bind (Json.member key j) Json.to_int_opt with
    | Some n -> n
    | None -> Alcotest.fail ("stats missing " ^ key)
  in
  check_int "requests" 3 (int stats "requests");
  match Json.member "latency_us" stats with
  | Some lat -> check_int "latency_us.count = requests" 3 (int lat "count")
  | None -> Alcotest.fail "stats missing latency_us"

(* ---- a connection's thread is the only one its traffic can stall ---- *)

let big_rows = 60_000

(* a server over [big], 60,000 two-int rows: one [SELECT x, y FROM big]
   reply is about a megabyte, so a few fill the loopback socket
   buffers *)
let with_big_server ~workers f =
  let m = M.create () in
  let schema =
    Schema.make [ Schema.attr "x" Value.TInt; Schema.attr "y" Value.TInt ]
  in
  let row i = Tuple.of_array [| Value.Int i; Value.Int (i * 7) |] in
  Database.add_table (M.database m) "big"
    (Table.of_array schema (Array.init big_rows row));
  let srv =
    Server.start
      ~config:{ Server.default_config with port = 0; workers; cache_mb = 0 }
      m
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

(* a raw connection past its greeting, for clients that misbehave *)
let dial port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  (match Wire.read_frame fd with
  | Some _ -> ()
  | None -> Alcotest.fail "no greeting");
  fd

let send_request fd id stmt =
  Wire.write_frame fd
    (Json.to_string (Wire.request_to_json (Wire.request ~id stmt)))

let cardinality (rsp : Wire.response) =
  match rsp.Wire.body with
  | Ok (Wire.Rows t) -> Table.cardinality t
  | _ -> Alcotest.fail "expected rows"

(* With one execution slot, a session that pipelines requests whose
   replies exceed the socket buffers and never reads blocks only its own
   connection's thread: another session's query still completes, and
   stop returns. *)
let test_e2e_stalled_reader_holds_no_slot () =
  with_big_server ~workers:1 @@ fun srv ->
  let port = Server.port srv in
  let fd = dial port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  for id = 1 to 24 do
    send_request fd id "SELECT x, y FROM big"
  done;
  (* let the replies back up into the socket buffers *)
  Thread.delay 0.5;
  let other =
    within ~secs:5. (fun () ->
        Client.with_client ~port (fun c ->
            cardinality (Client.run_exn c "SELECT x FROM big WHERE x = 7")))
  in
  check "a second session's query completes within 5 s" true (other = Some 1);
  check "stop returns" true (within ~secs:10. (fun () -> Server.stop srv) <> None)

(* a client that hangs up before its large replies are written costs
   the server failed writes, not the process: it serves the next client *)
let test_e2e_hangup_before_reply () =
  with_big_server ~workers:1 @@ fun srv ->
  let port = Server.port srv in
  for _ = 1 to 3 do
    let fd = dial port in
    for id = 1 to 4 do
      send_request fd id "SELECT x, y FROM big"
    done;
    Unix.close fd
  done;
  Client.with_client ~port @@ fun c ->
  check_int "the next client is served" big_rows
    (cardinality (Client.run_exn c "SELECT x, y FROM big"))

(* Minor-heap words, counted where they are allocated: a traced span
   around 1,000 three-field arrays and a served request whose execution
   allocates nearly all the words of its round trip each read within
   1.25x of [Gc.minor_words]' delta around them.  [Gc.counters]' minor
   count read ~8x low on OCaml 5.1. *)
let test_minor_words_counted () =
  let near what a b =
    check
      (Printf.sprintf "%s: %.0f words, Gc.minor_words: %.0f" what a b)
      true
      (a <= 1.25 *. b && b <= 1.25 *. a)
  in
  let obs = Tkr_obs.Trace.create ~gc:true () in
  let keep = ref [] in
  let w0 = Gc.minor_words () in
  Tkr_obs.Trace.with_span obs "alloc" (fun _ ->
      for i = 1 to 1_000 do
        keep := [| i; i; i |] :: !keep
      done);
  let delta = Gc.minor_words () -. w0 in
  (match Tkr_obs.Trace.roots obs with
  | [ sp ] -> (
      match Tkr_obs.Trace.find_attr sp Tkr_obs.Trace.gc_minor_words with
      | Some (Tkr_obs.Trace.Float w) -> near "span" w delta
      | _ -> Alcotest.fail "no gc_minor_words")
  | _ -> Alcotest.fail "one root span");
  ignore (Sys.opaque_identity !keep);
  (* the row engine boxes a tuple per pair the join reads *)
  let m = M.create ~engine:M.Row ~db:(W.generate { (W.scaled 40) with W.tmax = 600 }) () in
  let srv = Server.start ~config:{ Server.default_config with port = 0; cache_mb = 0 } m in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let sql = "SELECT count(*) AS c FROM salaries a, salaries b WHERE a.salary < b.salary" in
  let delta =
    Client.with_client ~port:(Server.port srv) @@ fun c ->
    let w0 = Gc.minor_words () in
    ignore (Client.run_exn c sql);
    Gc.minor_words () -. w0
  in
  (* the server observes a request after sending its reply: the drain
     joins the connection threads, so the ledger has seen it *)
  Server.stop srv;
  match
    List.find_opt
      (fun r -> r.Tkr_rec.Ledger.r_stmt = sql)
      (Tkr_rec.Ledger.rows (Server.ledger srv))
  with
  | Some r -> near "request" (float_of_int r.Tkr_rec.Ledger.r_gc_minor_w) delta
  | None -> Alcotest.fail "no ledger row"

let suite =
  ( "serve",
    [
      Alcotest.test_case "wire: table round-trip" `Quick test_wire_table_roundtrip;
      Alcotest.test_case "wire: frame I/O" `Quick test_wire_frames;
      Alcotest.test_case "wire: request/response" `Quick test_wire_request_response;
      Alcotest.test_case "cache: hit and version invalidation" `Quick
        test_cache_hit_and_invalidation;
      Alcotest.test_case "cache: LRU eviction and budget" `Quick
        test_cache_lru_eviction;
      Alcotest.test_case "cache: invalidate_table" `Quick
        test_cache_invalidate_table;
      Alcotest.test_case "database: version counters" `Quick
        test_database_versions;
      Alcotest.test_case "middleware: epoch staleness signal" `Quick
        test_middleware_epoch;
      Alcotest.test_case "admission: busy and drain" `Quick
        test_admission_busy_and_drain;
      Alcotest.test_case "admission: drain lets waiting work finish" `Quick
        test_admission_drain_lets_waiting_work_finish;
      Alcotest.test_case "middleware: 4-domain query hammer" `Quick
        test_middleware_domain_hammer;
      Alcotest.test_case "middleware: mixed DML hammer" `Quick
        test_middleware_dml_hammer;
      qcheck_op_mix;
      Alcotest.test_case "e2e: byte identity, cache on" `Quick
        test_e2e_byte_identity_cached;
      Alcotest.test_case "e2e: byte identity, cache off" `Quick
        test_e2e_byte_identity_cache_off;
      Alcotest.test_case "e2e: 8 concurrent clients" `Quick
        test_e2e_concurrent_clients;
      Alcotest.test_case "e2e: 8 concurrent clients, row engine, cache off"
        `Quick test_e2e_concurrent_clients_row;
      Alcotest.test_case "e2e: DML invalidates cache" `Quick
        test_e2e_dml_invalidates;
      Alcotest.test_case "e2e: stale session plans re-prepare" `Quick
        test_e2e_session_reprepare;
      Alcotest.test_case "e2e: pipelined per-session ordering" `Quick
        test_e2e_pipelined_ordering;
      Alcotest.test_case "e2e: typed error codes" `Quick test_e2e_error_codes;
      Alcotest.test_case "e2e: session limit" `Quick test_e2e_session_limit;
      Alcotest.test_case "e2e: graceful stop" `Quick test_e2e_graceful_stop;
      Alcotest.test_case "e2e: telemetry, trace ids, scrapes" `Quick
        test_e2e_telemetry;
      Alcotest.test_case "e2e: no trace ids when telemetry off" `Quick
        test_e2e_no_trace_when_tel_off;
      Alcotest.test_case "wire: stalled frame allocates what arrived" `Quick
        test_wire_stalled_frame;
      Alcotest.test_case "e2e: latency histogram counts every request" `Quick
        test_e2e_latency_counts_every_request;
      Alcotest.test_case "middleware: rejected INSERT keeps session plans" `Quick
        test_rejected_insert_keeps_plans;
      Alcotest.test_case "session: prepared table stays bounded" `Quick
        test_session_prepared_bounded;
      Alcotest.test_case "session: one shape, many points, in-bounds writes"
        `Quick test_session_shape_outcomes;
      Alcotest.test_case "session: bound plans = fresh prepares, both engines"
        `Quick test_session_binds_match_prepare;
      Alcotest.test_case "session: one key per plan and post-plan shape" `Quick
        test_plan_keys;
      Alcotest.test_case "e2e: METRICS cache counters equal STATS cache" `Quick
        test_e2e_cache_metrics_match_stats;
      Alcotest.test_case "e2e: plan outcomes in STATS and METRICS" `Quick
        test_e2e_plan_outcomes;
      Alcotest.test_case "e2e: EXPLAIN ANALYZE times the wire parse" `Quick
        test_e2e_explain_parse_phase;
      Alcotest.test_case "e2e: a stalled reader holds no slot" `Quick
        test_e2e_stalled_reader_holds_no_slot;
      Alcotest.test_case "e2e: a hang-up before the reply leaves the server up"
        `Quick test_e2e_hangup_before_reply;
      Alcotest.test_case "wire: golden bytes" `Quick test_wire_golden;
      Alcotest.test_case "minor words: spans and request records" `Quick
        test_minor_words_counted;
      prop_payload_is_tree_rendering;
      prop_frames_decode_rows;
      prop_frame_mutations;
      Alcotest.test_case "wire: 1,000-row decode, minor-heap words" `Quick
        test_wire_decode_alloc_guard;
      Alcotest.test_case "wire: a float column decodes without a string per cell" `Quick
        test_wire_float_decode_alloc;
      prop_column_codec;
      prop_ok_frame_bytes;
      prop_add_int;
      Alcotest.test_case "wire: column-made result, render and decode words" `Quick
        test_column_codec_words;
    ] )
