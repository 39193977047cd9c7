(* The workload registry: names are fixed, later changes cite them. *)

let all : (string * (Ctx.t -> trace:bool -> Ctx.outcome)) list =
  [
    ("file-assess", File_assess.run);
    ("serve-read", Serve_load.run ~write:false);
    ("serve-write", Serve_load.run ~write:true);
    ("mc-figures", Mc_figures.run);
  ]
