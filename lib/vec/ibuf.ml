(** Growable int arrays: the selection-vector and index buffers of the
    vectorized operators (amortized O(1) push, no boxing).  The backing
    array comes from {!Scratch}; {!release} and {!take} give it back once
    the buffer's contents have been consumed. *)

module Scratch = Tkr_idx.Scratch

type t = { mutable a : int array; mutable n : int }

let create ?(cap = 16) () = { a = Scratch.get (max cap 1); n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a' = Scratch.get (max 16 (2 * b.n)) in
    Array.blit b.a 0 a' 0 b.n;
    Scratch.release b.a;
    b.a <- a'
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let length b = b.n
let get b i = b.a.(i)

(** The backing array: the first {!length} cells are the contents.  Valid
    until the next {!push} or {!release}. *)
let data b = b.a

(** Empty the buffer, giving its backing array back to {!Scratch}. *)
let release b =
  Scratch.release b.a;
  b.a <- [||];
  b.n <- 0

(** The contents as an array of exactly {!length} cells; the buffer is
    {!release}d. *)
let take b =
  let a = Array.sub b.a 0 b.n in
  release b;
  a
