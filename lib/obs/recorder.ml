(* See recorder.mli. *)

type outcome =
  | Sent
  | Dropped
  | Partition_dropped
  | Duplicated
  | Delayed of int

type decision =
  | Generate of {
      client : int;
      intent : Rlist_model.Intent.t;
    }
  | Deliver_to_server of int
  | Deliver_to_client of int
  | Deliver_peer of {
      src : int;
      dst : int;
    }
  | Flush of {
      channel : string;
      ops : int;
    }
  | Transmit of {
      channel : string;
      seq : int;
      outcome : outcome;
    }
  | Retransmit of {
      channel : string;
      seq : int;
      attempts : int;
    }
  | Ack of {
      channel : string;
      seq : int;
      dropped : bool;
    }
  | Tick of int
  | Gc of {
      cycle : int;
      trigger : string;
    }

let outcome_to_string = function
  | Sent -> "sent"
  | Dropped -> "dropped"
  | Partition_dropped -> "partition_dropped"
  | Duplicated -> "duplicated"
  | Delayed j -> Printf.sprintf "delayed+%d" j

let decision_to_string = function
  | Generate { client; intent } ->
    Printf.sprintf "gen %d %s" client (Rlist_model.Intent.to_string intent)
  | Deliver_to_server i -> Printf.sprintf "c2s %d" i
  | Deliver_to_client i -> Printf.sprintf "s2c %d" i
  | Deliver_peer { src; dst } -> Printf.sprintf "p2p %d %d" src dst
  | Flush { channel; ops } -> Printf.sprintf "flush %s %d" channel ops
  | Transmit { channel; seq; outcome } ->
    Printf.sprintf "xmit %s #%d %s" channel seq (outcome_to_string outcome)
  | Retransmit { channel; seq; attempts } ->
    Printf.sprintf "rexmit %s #%d try%d" channel seq attempts
  | Ack { channel; seq; dropped } ->
    Printf.sprintf "ack %s #%d%s" channel seq (if dropped then " dropped" else "")
  | Tick n -> Printf.sprintf "tick %d" n
  | Gc { cycle; trigger } -> Printf.sprintf "gc #%d %s" cycle trigger

(* --- binary format ------------------------------------------------- *)

(* File layout (all integers unsigned LEB128 varints, all strings
   length-prefixed):

     "JFR1"
     nheader  (key value)*        -- run configuration
     ndigest  (key value)*        -- expected outcome fingerprint
     total                        -- decisions ever recorded
     stored                       -- decisions in the window below
     record*                      -- tag byte + fields

   The header carries everything needed to re-execute the run (the
   runs are seed-deterministic); the digest carries everything needed
   to check the re-execution is bit-identical; the decision window is
   the witness that is compared step by step. *)

let magic = "JFR1"

let put_varint b n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let put_pairs b pairs =
  put_varint b (List.length pairs);
  List.iter
    (fun (k, v) ->
      put_string b k;
      put_string b v)
    pairs

let outcome_tag = function
  | Sent -> 0
  | Dropped -> 1
  | Partition_dropped -> 2
  | Duplicated -> 3
  | Delayed _ -> 4

let put_decision b = function
  | Generate { client; intent } ->
    Buffer.add_char b '\001';
    put_varint b client;
    put_string b (Rlist_model.Intent.to_string intent)
  | Deliver_to_server i ->
    Buffer.add_char b '\002';
    put_varint b i
  | Deliver_to_client i ->
    Buffer.add_char b '\003';
    put_varint b i
  | Deliver_peer { src; dst } ->
    Buffer.add_char b '\004';
    put_varint b src;
    put_varint b dst
  | Flush { channel; ops } ->
    Buffer.add_char b '\005';
    put_string b channel;
    put_varint b ops
  | Transmit { channel; seq; outcome } ->
    Buffer.add_char b '\006';
    put_string b channel;
    put_varint b seq;
    put_varint b (outcome_tag outcome);
    (match outcome with
    | Delayed j -> put_varint b j
    | _ -> ())
  | Retransmit { channel; seq; attempts } ->
    Buffer.add_char b '\007';
    put_string b channel;
    put_varint b seq;
    put_varint b attempts
  | Ack { channel; seq; dropped } ->
    Buffer.add_char b '\008';
    put_string b channel;
    put_varint b seq;
    put_varint b (if dropped then 1 else 0)
  | Tick n ->
    Buffer.add_char b '\009';
    put_varint b n
  | Gc { cycle; trigger } ->
    Buffer.add_char b '\010';
    put_varint b cycle;
    put_string b trigger

(* --- decoding ------------------------------------------------------ *)

type recording = {
  header : (string * string) list;
  digest : (string * string) list;
  r_total : int;
  r_window : decision list;
}

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

type cursor = {
  data : string;
  mutable pos : int;
}

let get_byte c =
  if c.pos >= String.length c.data then corrupt "truncated";
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let get_varint c =
  let rec loop shift acc =
    let b = get_byte c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then loop (shift + 7) acc else acc
  in
  loop 0 0

let get_count c =
  match get_varint c with n when n < 0 -> corrupt "negative count" | n -> n

let get_string c =
  let len = get_count c in
  if len > String.length c.data - c.pos then corrupt "truncated string";
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s

let get_pairs c =
  let n = get_count c in
  List.init n (fun _ ->
      let k = get_string c in
      let v = get_string c in
      (k, v))

let get_outcome c =
  match get_varint c with
  | 0 -> Sent
  | 1 -> Dropped
  | 2 -> Partition_dropped
  | 3 -> Duplicated
  | 4 -> Delayed (get_varint c)
  | n -> corrupt (Printf.sprintf "unknown outcome tag %d" n)

let get_decision c =
  match get_byte c with
  | 1 ->
    let client = get_varint c in
    let text = get_string c in
    (match Rlist_model.Intent.of_string text with
    | Some intent -> Generate { client; intent }
    | None -> corrupt (Printf.sprintf "bad intent %S" text))
  | 2 -> Deliver_to_server (get_varint c)
  | 3 -> Deliver_to_client (get_varint c)
  | 4 ->
    let src = get_varint c in
    let dst = get_varint c in
    Deliver_peer { src; dst }
  | 5 ->
    let channel = get_string c in
    let ops = get_varint c in
    Flush { channel; ops }
  | 6 ->
    let channel = get_string c in
    let seq = get_varint c in
    let outcome = get_outcome c in
    Transmit { channel; seq; outcome }
  | 7 ->
    let channel = get_string c in
    let seq = get_varint c in
    let attempts = get_varint c in
    Retransmit { channel; seq; attempts }
  | 8 ->
    let channel = get_string c in
    let seq = get_varint c in
    let dropped = get_varint c <> 0 in
    Ack { channel; seq; dropped }
  | 9 -> Tick (get_varint c)
  | 10 ->
    let cycle = get_varint c in
    let trigger = get_string c in
    Gc { cycle; trigger }
  | n -> corrupt (Printf.sprintf "unknown decision tag %d" n)

(* --- the log ---------------------------------------------------------

   A recorder keeps each decision as its JFR1 bytes, written by
   [put_decision] at [record] time into the open chunk, a [Buffer.t]
   reused from chunk to chunk.  A chunk holds [chunk] decisions; a full
   one is copied out into an immutable string.  Chunk storage is bytes,
   so the major GC never scans it, and a decision value is garbage as
   soon as [record] returns: it dies in the minor heap instead of being
   boxed and promoted.  Chunks start at multiples of [chunk], and the
   oldest is dropped whole once every decision in it lies outside the
   newest [capacity], so a recorder retains fewer than
   [capacity + chunk] decisions and grows with the run instead of
   allocating for its capacity. *)

type t = {
  capacity : int;
  chunk : int;  (* decisions per chunk: [min capacity 4096] *)
  sealed : string Queue.t;  (* full chunks, oldest first *)
  open_chunk : Buffer.t;  (* the bytes of the decisions after them *)
  mutable first : int;  (* index of the oldest decision kept *)
  mutable total : int;  (* decisions ever recorded *)
}

let default_capacity = 1 lsl 18

let create ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  {
    capacity;
    chunk = min capacity 4096;
    sealed = Queue.create ();
    open_chunk = Buffer.create 256;
    first = 0;
    total = 0;
  }

let record t d =
  put_decision t.open_chunk d;
  t.total <- t.total + 1;
  if t.total mod t.chunk = 0 then begin
    Queue.push (Buffer.contents t.open_chunk) t.sealed;
    Buffer.clear t.open_chunk
  end;
  if t.first + t.chunk <= t.total - t.capacity then begin
    ignore (Queue.pop t.sealed);
    t.first <- t.first + t.chunk
  end

let total t = t.total

let wrapped t = t.total > t.capacity

(* One cursor per kept chunk, oldest first, the first one moved past
   the decisions that fell out of the window (fewer than [chunk]). *)
let retained t =
  let chunks =
    List.of_seq (Queue.to_seq t.sealed) @ [ Buffer.contents t.open_chunk ]
  in
  let skip = t.total - min t.total t.capacity - t.first in
  List.mapi
    (fun i data ->
      let c = { data; pos = 0 } in
      if i = 0 then
        for _ = 1 to skip do
          ignore (get_decision c)
        done;
      c)
    chunks

let window t =
  let out = ref [] in
  List.iter
    (fun c ->
      while c.pos < String.length c.data do
        out := get_decision c :: !out
      done)
    (retained t);
  List.rev !out

let encode ~header ~digest t =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  put_pairs b header;
  put_pairs b digest;
  put_varint b t.total;
  put_varint b (min t.total t.capacity);
  List.iter
    (fun c ->
      Buffer.add_substring b c.data c.pos (String.length c.data - c.pos))
    (retained t);
  Buffer.contents b

let dump ~header ~digest t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (encode ~header ~digest t))

(* --- reading a recording --------------------------------------------- *)

let decode data =
  if String.length data < 4 || not (String.equal (String.sub data 0 4) magic)
  then corrupt "bad magic";
  let c = { data; pos = 4 } in
  let header = get_pairs c in
  let digest = get_pairs c in
  let r_total = get_varint c in
  let stored = get_count c in
  let r_window = List.init stored (fun _ -> get_decision c) in
  { header; digest; r_total; r_window }

let is_recording path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic 4 with
        | exception End_of_file -> false
        | m -> String.equal m magic)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> decode (really_input_string ic (in_channel_length ic)))
