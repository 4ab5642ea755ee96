let () = print_int (Util.used 1)
