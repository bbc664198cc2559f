(* The golden-file checker itself, run against throwaway golden.txt files. *)

let with_golden contents f =
  let dir = Filename.temp_dir "golden" "" in
  let path = Filename.concat dir Golden.file in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Sys.remove path;
      Sys.rmdir dir)
    f

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let failure name text =
  match Golden.check name text with
  | () -> Alcotest.failf "case %s passed, expected a failure" name
  | exception Golden.Failed msg -> msg

let text = "offered=3 completed=2\nmean=0x1.8p+1\n"
let digest = Digest.to_hex (Digest.string text)

let expect_in msg sub =
  Alcotest.(check bool) (Printf.sprintf "%S in message:\n%s" sub msg) true (contains msg sub)

let test_match () =
  with_golden (Printf.sprintf "other %s\n\nrun %s\n" (String.make 32 '0') digest)
    (fun () -> Golden.check "run" text)

let test_malformed () =
  with_golden (Printf.sprintf "run %s\nrun-two\n" digest) (fun () ->
      expect_in (failure "run" text) "golden.txt:2: malformed line");
  with_golden (Printf.sprintf "run %s\nshort 12ab\n" digest) (fun () ->
      expect_in (failure "run" text) "golden.txt:2: malformed line");
  with_golden (Printf.sprintf "run %s\nrun %s\n" digest digest) (fun () ->
      expect_in (failure "run" text) "golden.txt:2: duplicate case")

let test_missing () =
  with_golden (Printf.sprintf "other %s\n" digest) (fun () ->
      let msg = failure "run" text in
      expect_in msg "case run missing";
      expect_in msg text;
      expect_in msg ("run " ^ digest))

let test_mismatch () =
  let recorded = String.make 32 'a' in
  with_golden (Printf.sprintf "run %s\n" recorded) (fun () ->
      let msg = failure "run" text in
      expect_in msg ("recorded " ^ recorded);
      expect_in msg text;
      expect_in msg ("run " ^ digest))

let () =
  Alcotest.run "golden-check"
    [
      ( "golden.txt",
        [
          Alcotest.test_case "recorded digest passes" `Quick test_match;
          Alcotest.test_case "malformed line fails" `Quick test_malformed;
          Alcotest.test_case "missing case fails" `Quick test_missing;
          Alcotest.test_case "mismatch fails with the text" `Quick test_mismatch;
        ] );
    ]
