(* SHA-256 / HMAC-SHA256 against published test vectors, plus
   incremental-update and property checks. *)

open Core.Crypto

let test_sha256_vectors () =
  (* FIPS 180-4 / NIST examples. *)
  List.iter
    (fun (input, expected) -> Alcotest.(check string) input expected (Sha256.digest_hex input))
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "The quick brown fox jumps over the lazy dog",
        "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
    ]

let test_sha256_million_a () =
  (* The classic one-million-'a' vector, fed incrementally. *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk
  done;
  Alcotest.(check string) "1M x a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.finalize ctx))

let test_sha256_incremental_equals_oneshot () =
  let data = String.init 10_000 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  (* Uneven chunk sizes crossing block boundaries. *)
  let sizes = [ 1; 63; 64; 65; 127; 128; 1000; 8552 ] in
  let pos = ref 0 in
  List.iter
    (fun n ->
      Sha256.update ctx (String.sub data !pos n);
      pos := !pos + n)
    sizes;
  Alcotest.(check string) "incremental = one-shot" (Sha256.digest data)
    (Sha256.finalize ctx)

let test_sha256_block_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding edge cases. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      Alcotest.(check int) (Printf.sprintf "len %d digest size" n) 32
        (String.length (Sha256.digest s)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

let sha256_distinct_prop =
  QCheck.Test.make ~name:"sha256: distinct inputs yield distinct digests" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 200)))
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let test_hex () =
  Alcotest.(check string) "hex" "00ff10" (Sha256.hex "\x00\xff\x10")

let test_hmac_rfc4231 () =
  (* RFC 4231 test cases 1, 2 and the long-key case 6. *)
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There");
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?");
  Alcotest.(check string) "case 6 (131-byte key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = "secret" and msg = "the content" in
  let mac = Hmac.mac ~key msg in
  Alcotest.(check bool) "verifies" true (Hmac.verify ~key ~msg ~mac);
  Alcotest.(check bool) "wrong key" false (Hmac.verify ~key:"other" ~msg ~mac);
  Alcotest.(check bool) "wrong msg" false (Hmac.verify ~key ~msg:"tampered" ~mac);
  Alcotest.(check bool) "truncated mac" false
    (Hmac.verify ~key ~msg ~mac:(String.sub mac 0 16))

let hmac_key_sensitivity_prop =
  QCheck.Test.make ~name:"hmac: different keys give different macs" ~count:100
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (string_of_size Gen.(1 -- 64)))
    (fun (k1, k2) -> k1 = k2 || Hmac.mac ~key:k1 "fixed message" <> Hmac.mac ~key:k2 "fixed message")

(* The int32 implementation this module replaced, kept verbatim as the
   reference: the native-int [Sha256] must agree with it on every
   digest, however the input is chunked, and on hex encoding. *)
module Ref_sha256 = struct
  let k =
    [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
       0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
       0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
       0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
       0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
       0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
       0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
       0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
       0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
       0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
       0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

  type ctx = {
    h : int32 array;
    block : Bytes.t; (* 64-byte working block *)
    mutable block_len : int;
    mutable total_len : int64;
  }

  let init () =
    {
      h =
        [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl; 0x9b05688cl;
           0x1f83d9abl; 0x5be0cd19l |];
      block = Bytes.create 64;
      block_len = 0;
      total_len = 0L;
    }

  let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

  let process_block ctx block off =
    let w = Array.make 64 0l in
    for i = 0 to 15 do
      w.(i) <- Bytes.get_int32_be block (off + (i * 4))
    done;
    for i = 16 to 63 do
      let s0 =
        Int32.logxor
          (Int32.logxor (rotr w.(i - 15) 7) (rotr w.(i - 15) 18))
          (Int32.shift_right_logical w.(i - 15) 3)
      in
      let s1 =
        Int32.logxor
          (Int32.logxor (rotr w.(i - 2) 17) (rotr w.(i - 2) 19))
          (Int32.shift_right_logical w.(i - 2) 10)
      in
      w.(i) <- Int32.add (Int32.add w.(i - 16) s0) (Int32.add w.(i - 7) s1)
    done;
    let a = ref ctx.h.(0)
    and b = ref ctx.h.(1)
    and c = ref ctx.h.(2)
    and d = ref ctx.h.(3)
    and e = ref ctx.h.(4)
    and f = ref ctx.h.(5)
    and g = ref ctx.h.(6)
    and hh = ref ctx.h.(7) in
    for i = 0 to 63 do
      let s1 = Int32.logxor (Int32.logxor (rotr !e 6) (rotr !e 11)) (rotr !e 25) in
      let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
      let temp1 = Int32.add (Int32.add (Int32.add !hh s1) (Int32.add ch k.(i))) w.(i) in
      let s0 = Int32.logxor (Int32.logxor (rotr !a 2) (rotr !a 13)) (rotr !a 22) in
      let maj =
        Int32.logxor
          (Int32.logxor (Int32.logand !a !b) (Int32.logand !a !c))
          (Int32.logand !b !c)
      in
      let temp2 = Int32.add s0 maj in
      hh := !g;
      g := !f;
      f := !e;
      e := Int32.add !d temp1;
      d := !c;
      c := !b;
      b := !a;
      a := Int32.add temp1 temp2
    done;
    ctx.h.(0) <- Int32.add ctx.h.(0) !a;
    ctx.h.(1) <- Int32.add ctx.h.(1) !b;
    ctx.h.(2) <- Int32.add ctx.h.(2) !c;
    ctx.h.(3) <- Int32.add ctx.h.(3) !d;
    ctx.h.(4) <- Int32.add ctx.h.(4) !e;
    ctx.h.(5) <- Int32.add ctx.h.(5) !f;
    ctx.h.(6) <- Int32.add ctx.h.(6) !g;
    ctx.h.(7) <- Int32.add ctx.h.(7) !hh

  let update ctx s =
    let len = String.length s in
    ctx.total_len <- Int64.add ctx.total_len (Int64.of_int len);
    let pos = ref 0 in
    (* Fill a partial block first. *)
    if ctx.block_len > 0 then begin
      let need = 64 - ctx.block_len in
      let take = min need len in
      Bytes.blit_string s 0 ctx.block ctx.block_len take;
      ctx.block_len <- ctx.block_len + take;
      pos := take;
      if ctx.block_len = 64 then begin
        process_block ctx ctx.block 0;
        ctx.block_len <- 0
      end
    end;
    while len - !pos >= 64 do
      Bytes.blit_string s !pos ctx.block 0 64;
      process_block ctx ctx.block 0;
      pos := !pos + 64
    done;
    if !pos < len then begin
      Bytes.blit_string s !pos ctx.block 0 (len - !pos);
      ctx.block_len <- len - !pos
    end

  let finalize ctx =
    let bitlen = Int64.mul ctx.total_len 8L in
    (* Append 0x80 then zero padding then 64-bit length. *)
    Bytes.set ctx.block ctx.block_len '\x80';
    ctx.block_len <- ctx.block_len + 1;
    if ctx.block_len > 56 then begin
      Bytes.fill ctx.block ctx.block_len (64 - ctx.block_len) '\x00';
      process_block ctx ctx.block 0;
      ctx.block_len <- 0
    end;
    Bytes.fill ctx.block ctx.block_len (56 - ctx.block_len) '\x00';
    Bytes.set_int64_be ctx.block 56 bitlen;
    process_block ctx ctx.block 0;
    let out = Bytes.create 32 in
    for i = 0 to 7 do
      Bytes.set_int32_be out (i * 4) ctx.h.(i)
    done;
    Bytes.to_string out

  let digest s =
    let ctx = init () in
    update ctx s;
    finalize ctx

  let hex s =
    let buf = Buffer.create (2 * String.length s) in
    String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
    Buffer.contents buf

  let digest_hex s = hex (digest s)
end

let sha256_matches_reference_prop =
  QCheck.Test.make ~name:"sha256: digest matches the int32 reference (0-300 bytes)"
    ~count:500
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s -> Sha256.digest s = Ref_sha256.digest s)

let sha256_chunking_matches_reference_prop =
  QCheck.Test.make ~name:"sha256: any update chunking matches the reference" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 400)) (small_list (int_bound 130)))
    (fun (s, cuts) ->
      let ctx = Sha256.init () in
      let rec feed pos = function
        | [] -> Sha256.update ctx (String.sub s pos (String.length s - pos))
        | n :: rest ->
          let n = min n (String.length s - pos) in
          Sha256.update ctx (String.sub s pos n);
          feed (pos + n) rest
      in
      feed 0 cuts;
      Sha256.finalize ctx = Ref_sha256.digest s)

let hex_matches_reference_prop =
  QCheck.Test.make ~name:"sha256: hex matches the Printf reference" ~count:300
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun s -> Sha256.hex s = Ref_sha256.hex s)

let suite =
  [
    Alcotest.test_case "sha256: NIST vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256: one million a's (incremental)" `Slow test_sha256_million_a;
    Alcotest.test_case "sha256: incremental equals one-shot" `Quick
      test_sha256_incremental_equals_oneshot;
    Alcotest.test_case "sha256: padding boundary lengths" `Quick test_sha256_block_boundaries;
    QCheck_alcotest.to_alcotest sha256_distinct_prop;
    Alcotest.test_case "hex encoding" `Quick test_hex;
    Alcotest.test_case "hmac: RFC 4231 vectors" `Quick test_hmac_rfc4231;
    Alcotest.test_case "hmac: verify accepts/rejects" `Quick test_hmac_verify;
    QCheck_alcotest.to_alcotest hmac_key_sensitivity_prop;
    QCheck_alcotest.to_alcotest sha256_matches_reference_prop;
    QCheck_alcotest.to_alcotest sha256_chunking_matches_reference_prop;
    QCheck_alcotest.to_alcotest hex_matches_reference_prop;
  ]
