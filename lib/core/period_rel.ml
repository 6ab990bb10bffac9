(** The logical model: period K-relations, i.e. K-relations annotated with
    elements of the period semiring K^T (Section 6).

    [Make (K) (D)] provides, for any m-semiring [K]:
    - evaluation of RA (selection, projection, join, union, difference)
      with K^T-annotations,
    - the timeslice operator (Def. 6.2), a homomorphism onto K-relations,
    - [encode] / [decode]: the bijection ENC_K between snapshot K-relations
      and period K-relations (Def. 6.3) and its inverse.

    Together these form the representation system of Thm. 6.6 / 7.x; the
    property-based tests in [test/test_representation.ml] check the
    commutative diagrams on randomized databases and queries. *)

module Domain = Tkr_timeline.Domain
module Interval = Tkr_timeline.Interval
module Schema = Tkr_relation.Schema
module Tuple = Tkr_relation.Tuple
module Krel = Tkr_relation.Krel
module Algebra = Tkr_relation.Algebra
module Period_semiring = Tkr_temporal.Period_semiring

module Make
    (K : Tkr_semiring.Semiring_intf.MONUS)
    (D : Period_semiring.DOMAIN) =
struct
  module KT = Period_semiring.MakeMonus (K) (D)
  module E = Tkr_relation.Eval.Make (KT)
  module R = E.R
  (** A period K-relation: tuples annotated with coalesced temporal
      K-elements. *)

  module KR = Tkr_relation.Krel.MakeMonus (K)
  module Snap = Tkr_snapshot.Snapshot_rel.Make (K)

  type t = R.t

  let domain = D.domain

  (** Build from interval-stamped facts [(tuple, (b, e), k)]. *)
  let of_facts schema facts : t =
    List.fold_left
      (fun acc (tuple, (b, e), k) ->
        R.add acc tuple (KT.of_assoc [ ((b, e), k) ]))
      (R.empty schema) facts

  (** Timeslice for K^T-relations (Def. 6.2): apply τ_T to every
      annotation.  Being a homomorphism, it commutes with queries. *)
  let timeslice (r : t) t : KR.t =
    R.fold
      (fun tuple el acc -> KR.add acc tuple (KT.timeslice el t))
      r
      (KR.empty (Krel.schema r))

  (** ENC_K (Def. 6.3): merge all snapshots into coalesced temporal
      elements, one per tuple. *)
  let encode (snap : Snap.t) : t =
    let domain = Snap.domain snap in
    let tmin = Domain.tmin domain in
    let table : (Tuple.t, (Interval.t * K.t) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    for i = 0 to Domain.size domain - 1 do
      let t = tmin + i in
      KR.iter
        (fun tuple k ->
          let cell =
            match Hashtbl.find_opt table tuple with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.add table tuple c;
                c
          in
          cell := (Interval.singleton t, k) :: !cell)
        (Snap.timeslice snap t)
    done;
    Hashtbl.fold
      (fun tuple cell acc -> R.add acc tuple (KT.of_raw !cell))
      table
      (R.empty (Snap.schema snap))

  (** ENC_K⁻¹: recover the snapshot K-relation via timeslices. *)
  let decode (r : t) : Snap.t =
    Snap.make D.domain (Krel.schema r) (fun t -> timeslice r t)

  (** Evaluate RA over period K-relations with K^T semantics. *)
  let eval (db : string -> t) (q : Algebra.t) : t = E.eval db q

  let equal = R.equal
  let pp = R.pp
end
