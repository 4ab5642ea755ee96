(* Allocation pins shared by the test executables. *)

(* Words [f] allocates: the minor heap's from [Gc.minor_words], plus
   blocks too large for it, which go straight to the major heap (the
   major words of [Gc.counters] less promotions).  The minor heap is
   emptied first so nothing older is promoted meanwhile, and the
   counters' own boxes are measured on a no-op and taken off.  The
   counts are deterministic for a given program. *)
let words_allocated f =
  let measure f =
    Gc.minor ();
    let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
    f ();
    let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. promoted1 -. (major0 -. promoted0))
  in
  measure f -. measure ignore

let check_words what ~bound words =
  if words > bound then Alcotest.failf "%s allocated %.0f words, bound %.0f" what words bound
