(* Benchmark harness: regenerates every table and figure of the paper
   (DESIGN.md experiments E1-E8, A1, A2) plus kernel micro-benchmarks.

   Usage:
     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- table2       one experiment
     dune exec bench/main.exe -- table2 --family simon --quick
     dune exec bench/main.exe -- micro --quick --json BENCH.json
   Experiments: table1 example fig2 table2 ablation encoding-sweep
   representations incremental service gauss micro *)

module Json_out = Harness.Json_out

let usage () =
  print_endline
    "usage: main.exe \
     [table1|example|fig2|table2|ablation|encoding-sweep|representations|incremental|service|gauss|micro]*\n\
    \       [--quick] [--family aes|simon|speck|bitcoin|sat] [--json FILE]\n\
    \       [--trace FILE] [--metrics FILE] [--alloc-gate] [--portfolio]\n\
     --alloc-gate: with micro, run only the GC-regression gate (exits 1 on \
     regression)\n\
     --portfolio: with micro, run only the portfolio race (profiles alone vs \
     portfolio-4 with clause sharing; gated)";
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let alloc_gate = List.mem "--alloc-gate" args in
  let portfolio = List.mem "--portfolio" args in
  let find_opt_arg key =
    let rec find = function
      | k :: v :: _ when k = key -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let family_filter = find_opt_arg "--family" in
  let json_path = find_opt_arg "--json" in
  let json = Option.map (fun _ -> Json_out.create ()) json_path in
  let trace_path = find_opt_arg "--trace" in
  let metrics_path = find_opt_arg "--metrics" in
  (* arm observability before any experiment runs; the sinks flush from
     at_exit even if an experiment crashes mid-way *)
  if trace_path <> None then begin
    Obs.Trace.set_enabled true;
    Option.iter
      (fun path ->
        Obs.Sink.register ~key:"trace" ~path (fun oc ->
            output_string oc (Obs.Trace.to_json ())))
      trace_path
  end;
  if metrics_path <> None then begin
    Obs.Metrics.set_enabled true;
    Option.iter
      (fun path ->
        Obs.Sink.register ~key:"metrics" ~path (fun oc ->
            output_string oc (Obs.Metrics.to_json ())))
      metrics_path
  end;
  let option_values =
    List.filteri
      (fun i _ ->
        i > 0
        && List.mem
             (List.nth args (i - 1))
             [ "--family"; "--json"; "--trace"; "--metrics" ])
      args
  in
  let selected =
    List.filter
      (fun a ->
        (not (String.length a >= 2 && String.sub a 0 2 = "--"))
        && not (List.mem a option_values))
      args
  in
  let all = [ "table1"; "example"; "fig2"; "table2"; "ablation"; "encoding-sweep"; "representations"; "incremental"; "service"; "gauss"; "micro" ] in
  let selected = if selected = [] then all else selected in
  let (), wall_s, cpu_s =
    Harness.Timing.time_cpu (fun () ->
        List.iter
          (fun name ->
            match name with
            | "table1" -> Experiments.table1 ()
            | "example" -> Experiments.example ()
            | "fig2" -> Experiments.fig2 ()
            | "table2" -> Experiments.table2 ~quick ?family_filter ?json ()
            | "ablation" -> Experiments.ablation ()
            | "encoding-sweep" -> Experiments.encoding_sweep ()
            | "representations" -> Experiments.representations ()
            | "incremental" -> Experiments.incremental ~quick ?json ()
            | "service" -> Experiments.service ~quick ?json ()
            | "gauss" -> Experiments.gauss ~quick ?json ()
            | "micro" -> Micro.run ~quick ~alloc_gate ~portfolio ?json ()
            | other ->
                Printf.eprintf "unknown experiment %S\n" other;
                usage ())
          selected)
  in
  Printf.printf "\ntotal: wall %.2fs, process CPU %.2fs\n" wall_s cpu_s;
  (match (json, json_path) with
  | Some j, Some path ->
      let metrics =
        if Obs.Metrics.enabled () then Some (Obs.Metrics.to_extras ()) else None
      in
      Json_out.write ?metrics j path;
      Printf.printf "wrote %s (%d records)\n" path (List.length (Json_out.records j))
  | _ -> ());
  Option.iter
    (fun path ->
      Obs.Sink.write_now ~key:"trace";
      Printf.printf "trace: wrote %s (%d events, %d spans dropped)\n" path
        (Obs.Trace.n_events ()) (Obs.Trace.dropped ()))
    trace_path;
  Option.iter
    (fun path ->
      Obs.Sink.write_now ~key:"metrics";
      Printf.printf "metrics: wrote %s\n" path)
    metrics_path
