(* LNT001 accepts immutable captures, closure-local refs, Memo *)
(* Stays clean under LNT001: the parallel closures only read immutable
   captures (a float), the one ref is allocated inside the closure itself,
   and the shared table is an abstract handle reached exclusively through
   the whitelisted Memo API (mirroring Exec.Memo's domain-safe contract). *)

module Exec = struct
  let map f xs = List.map f xs
end

module Memo : sig
  type ('a, 'b) t

  val create : unit -> ('a, 'b) t
  val find_or_add : ('a, 'b) t -> 'a -> (unit -> 'b) -> 'b
end = struct
  type ('a, 'b) t = ('a, 'b) Hashtbl.t

  let create () = Hashtbl.create 16

  let find_or_add t k f =
    match Hashtbl.find_opt t k with
    | Some v -> v
    | None ->
      let v = f () in
      Hashtbl.add t k v;
      v
end

let scaled scale xs =
  Exec.map (fun x ->
      let acc = ref (x *. scale) in
      acc := !acc +. 1.0;
      !acc)
    xs

let cached memo xs = Exec.map (fun x -> Memo.find_or_add memo x (fun () -> x *. 2.0)) xs
