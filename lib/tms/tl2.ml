open Ptm_machine
module Sm = Proc.Step

let ( let* ) = Sm.bind

(* Step-form short-circuiting [List.for_all]. *)
let rec forall f = function
  | [] -> Sm.return true
  | x :: rest ->
      let* ok = f x in
      if ok then forall f rest else Sm.return false

(* The implementation is written once, in step-machine form; the
   direct-style interface below is derived from it via [Tm_intf.Of_step],
   so both forms execute the identical event sequence. *)
module Stepwise = struct
  let name = "tl2"

  let props =
    {
      Ptm_core.Tm_intf.opaque = true;
      weak_dap = false;
      invisible_reads = true;
      weak_invisible_reads = true;
      progressive = true;
      strongly_progressive = false;
    }

  type t = {
    clock : Memory.addr;
    orecs : Memory.addr array;
    data : Memory.addr array;
  }

  let create machine ~nobjs =
    {
      clock = Machine.alloc machine ~name:"tl2.clock" (Value.Int 0);
      orecs =
        Orec.alloc_array machine ~prefix:"tl2.orec" ~nobjs
          ~init:(Orec.pack ~ver:0 ~owner:Orec.none);
      data =
        Orec.alloc_array machine ~prefix:"tl2.data" ~nobjs
          ~init:(Value.Int Ptm_core.Tm_intf.init_value);
    }

  type tx = {
    id : int;
    mutable rv : int;  (* -1 until the first t-operation samples the clock *)
    mutable rset : (int * int) list;  (* obj -> value read (for caching) *)
    mutable wbuf : (int * int) list;
  }

  let fresh _t ~pid:_ ~id = { id; rv = -1; rset = []; wbuf = [] }

  let ensure_rv t tx =
    Sm.suspend @@ fun () ->
    if tx.rv >= 0 then Sm.return ()
    else
      let* c = Sm.read_int t.clock in
      tx.rv <- c;
      Sm.return ()

  let read_orec t x = Sm.map Orec.unpack (Sm.read t.orecs.(x))

  let read t tx x =
    Sm.suspend @@ fun () ->
    match List.assoc_opt x tx.wbuf with
    | Some v -> Sm.return (Ok v)
    | None -> (
        match List.assoc_opt x tx.rset with
        | Some v -> Sm.return (Ok v)
        | None ->
            let* () = ensure_rv t tx in
            let* ver, owner = read_orec t x in
            if owner <> Orec.none || ver > tx.rv then Sm.return (Error `Abort)
            else
              let* v = Sm.read_int t.data.(x) in
              let* ver2, owner2 = read_orec t x in
              if ver2 <> ver || owner2 <> Orec.none then
                Sm.return (Error `Abort)
              else begin
                tx.rset <- (x, v) :: tx.rset;
                Sm.return (Ok v)
              end)

  let write t tx x v =
    Sm.suspend @@ fun () ->
    let* () = ensure_rv t tx in
    tx.wbuf <- (x, v) :: tx.wbuf;
    Sm.return (Ok ())

  let wset tx = List.sort_uniq compare (List.map fst tx.wbuf)

  let release t held =
    Sm.iter
      (fun (x, ver) -> Sm.write t.orecs.(x) (Orec.pack ~ver ~owner:Orec.none))
      held

  let try_commit t tx =
    Sm.suspend @@ fun () ->
    if tx.wbuf = [] then Sm.return (Ok ())
      (* read-only: the rv snapshot already validated *)
    else
      let rec acquire held = function
        | [] -> Sm.return (Ok held)
        | x :: rest ->
            let* ver, owner = read_orec t x in
            if owner <> Orec.none || ver > tx.rv then Sm.return (Error held)
            else
              let* won =
                Sm.cas t.orecs.(x)
                  ~expected:(Orec.pack ~ver ~owner:Orec.none)
                  ~desired:(Orec.pack ~ver ~owner:tx.id)
              in
              if won then acquire ((x, ver) :: held) rest
              else Sm.return (Error held)
      in
      let* acquired = acquire [] (wset tx) in
      match acquired with
      | Error held ->
          let* () = release t held in
          Sm.return (Error `Abort)
      | Ok held ->
          let* c = Sm.faa t.clock 1 in
          let wv = 1 + c in
          let* rset_ok =
            forall
              (fun (x, _) ->
                if List.mem_assoc x held then Sm.return true
                else
                  let* ver, owner = read_orec t x in
                  Sm.return (owner = Orec.none && ver <= tx.rv))
              tx.rset
          in
          if not rset_ok then
            let* () = release t held in
            Sm.return (Error `Abort)
          else
            let* () =
              Sm.iter
                (fun (x, _) ->
                  match List.assoc_opt x tx.wbuf with
                  | Some v -> Sm.write t.data.(x) (Value.Int v)
                  | None -> Sm.return ())
                held
            in
            let* () =
              Sm.iter
                (fun (x, _) ->
                  Sm.write t.orecs.(x) (Orec.pack ~ver:wv ~owner:Orec.none))
                held
            in
            Sm.return (Ok ())
end

include Ptm_core.Tm_intf.Of_step (Stepwise)
