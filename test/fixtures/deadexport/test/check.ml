let () = assert (Util.for_tests 3 = Util.oracle 3)
