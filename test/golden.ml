(* The one identity mechanism: every deterministic run whose modeled
   behaviour must stay put renders a canonical text report, and
   [check name text] compares the report's MD5 against the [name] line of
   golden.txt (one "<case> <md5>" line per case, read from the working
   directory).  A malformed line, a missing case and a mismatch all fail;
   the mismatch message carries the canonical text and the new digest, and
   re-recording a deliberate behaviour change means editing that line. *)

exception Failed of string

let () =
  Printexc.register_printer (function
    | Failed msg -> Some ("golden: " ^ msg)
    | _ -> None)

let file = "golden.txt"

let is_md5 d =
  String.length d = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) d

let load () =
  let ic = open_in_bin file in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic |> String.split_on_char '\n')
  in
  let malformed i line why =
    raise (Failed (Printf.sprintf "%s:%d: %s: %S" file (i + 1) why line))
  in
  List.fold_left
    (fun (i, acc) line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> (i + 1, acc)
      | [ case; d ] when case <> "" && is_md5 d ->
        if List.mem_assoc case acc then malformed i line "duplicate case";
        (i + 1, (case, d) :: acc)
      | _ -> malformed i line "malformed line, want \"<case> <md5>\"")
    (0, []) lines
  |> snd

let check name text =
  let digest = Digest.to_hex (Digest.string text) in
  match List.assoc_opt name (load ()) with
  | Some d when d = digest -> ()
  | Some d ->
    raise
      (Failed
         (Printf.sprintf
            "case %s: digest %s, recorded %s\ncanonical text:\n%s\nnew line: %s %s"
            name digest d text name digest))
  | None ->
    raise
      (Failed
         (Printf.sprintf "case %s missing from %s\ncanonical text:\n%s\nnew line: %s %s"
            name file text name digest))
