(* metrics_doc — print doc/METRICS.md, the reference table of every
   declared metric, generated from the metric schema:

     dune exec bin/metrics_doc.exe > doc/METRICS.md

   (`make metrics-doc`). A test fails when the committed file and the
   schema disagree. *)

let () = print_string (Bg_kabi.Metrics.markdown ())
