(* Declarative alert rules over the timeseries rollups and the
   deterministic flight recorder. See the .mli for the contract; the
   wiring onto a Machine lives in lib/kabi. *)

open Bg_engine

(* ---------------------------------------------------------------- *)
(* Rules *)

type agg = Delta | Value | Rate | P50 | P99

let agg_name = function
  | Delta -> "delta"
  | Value -> "value"
  | Rate -> "rate"
  | P50 -> "p50"
  | P99 -> "p99"

let agg_of_name = function
  | "delta" -> Some Delta
  | "value" -> Some Value
  | "rate" -> Some Rate
  | "p50" -> Some P50
  | "p99" -> Some P99
  | _ -> None

type op = Gt | Ge | Lt | Le

let op_name = function Gt -> ">" | Ge -> ">=" | Lt -> "<" | Le -> "<="

let op_of_name = function
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | "<" -> Some Lt
  | "<=" -> Some Le
  | _ -> None

let op_holds op v threshold =
  match op with
  | Gt -> v > threshold
  | Ge -> v >= threshold
  | Lt -> v < threshold
  | Le -> v <= threshold

type rule = {
  rule_name : string;
  subsystem : string;
  metric : string;
  agg : agg;
  op : op;
  threshold : float;
  for_windows : int;
  severity : Rasdb.severity;
}

let severity_of_name = function
  | "info" -> Some Rasdb.Info
  | "warn" -> Some Rasdb.Warn
  | "error" -> Some Rasdb.Error
  | _ -> None

let rule_to_string r =
  Printf.sprintf "%s: %s.%s %s %s %.17g for %d %s" r.rule_name r.subsystem
    r.metric (agg_name r.agg) (op_name r.op) r.threshold r.for_windows
    (Rasdb.severity_name r.severity)

let has_whitespace s = String.exists (fun c -> c = ' ' || c = '\t') s

let parse_rule s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let tokens =
    String.split_on_char ' ' (String.trim s)
    |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | name_tok :: series :: agg_tok :: op_tok :: thr_tok :: rest
    when String.length name_tok > 1
         && name_tok.[String.length name_tok - 1] = ':' -> (
      let rule_name = String.sub name_tok 0 (String.length name_tok - 1) in
      if has_whitespace rule_name then err "rule name has whitespace"
      else
        match String.index_opt series '.' with
        | None -> err "series %S is not <subsystem>.<metric>" series
        | Some dot -> (
            let subsystem = String.sub series 0 dot in
            let metric =
              String.sub series (dot + 1) (String.length series - dot - 1)
            in
            if subsystem = "" || metric = "" then
              err "series %S is not <subsystem>.<metric>" series
            else
              match (agg_of_name agg_tok, op_of_name op_tok,
                     float_of_string_opt thr_tok) with
              | None, _, _ -> err "unknown aggregation %S" agg_tok
              | _, None, _ -> err "unknown operator %S" op_tok
              | _, _, None -> err "bad threshold %S" thr_tok
              | Some agg, Some op, Some threshold -> (
                  let for_windows, rest =
                    match rest with
                    | "for" :: n :: rest' -> (
                        match int_of_string_opt n with
                        | Some n when n >= 1 -> (n, rest')
                        | _ -> (-1, rest))
                    | _ -> (1, rest)
                  in
                  if for_windows < 1 then err "bad window count in %S" s
                  else
                    match rest with
                    | [] ->
                        Ok { rule_name; subsystem; metric; agg; op; threshold;
                             for_windows; severity = Rasdb.Warn }
                    | [ sev ] -> (
                        match severity_of_name sev with
                        | Some severity ->
                            Ok { rule_name; subsystem; metric; agg; op;
                                 threshold; for_windows; severity }
                        | None -> err "unknown severity %S" sev)
                    | _ -> err "trailing tokens in rule %S" s)))
  | _ -> err "rule %S does not match <name>: <sub>.<metric> <agg> <op> <thr>" s

(* ---------------------------------------------------------------- *)
(* Alerts *)

type alert = {
  rule : string;
  severity : Rasdb.severity;
  series : string;
  rank : int;
  core : int;
  window : int;
  at : Cycles.t;
  value : float;
  threshold : float;
}

(* ---------------------------------------------------------------- *)
(* The service *)

type recorder_config = {
  max_reports : int;
  spans_per_scope : int;
  ras_tail : int;
  causal_last : int;
  series_windows : int;
}

let default_recorder =
  {
    max_reports = 4;
    spans_per_scope = 8;
    ras_tail = 16;
    causal_last = 24;
    series_windows = 32;
  }

type scope_key = { k_rule : int; k_rank : int; k_core : int }

type t = {
  ts : Timeseries.t;
  db : Rasdb.t;
  rules : rule array;
  recorder : recorder_config;
  causal : Causal.t option;
  streaks : (scope_key, int) Hashtbl.t;
  firing_tbl : (scope_key, alert) Hashtbl.t;
  mutable alerts : alert list;  (* reversed *)
  mutable alert_count : int;
  mutable alert_digest : Fnv.t;
  mutable emit : alert -> unit;
  mutable implicate : component:string -> rank:int -> (string * string) list;
  mutable snap_provider : unit -> string;
  mutable reports : (string * string) list;  (* reversed *)
  mutable captures_suppressed : int;
}

let rules t = Array.to_list t.rules
let ts t = t.ts
let db t = t.db
let set_emit t f = t.emit <- f
let set_implicate t f = t.implicate <- f
let set_snap_provider t f = t.snap_provider <- f
let alerts t = List.rev t.alerts
let alert_count t = t.alert_count
let captures_suppressed t = t.captures_suppressed
let reports t = List.rev t.reports

let firing t =
  Hashtbl.fold (fun k a acc -> (k, a) :: acc) t.firing_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let digest t =
  let h = Fnv.add_int64 Fnv.empty (Timeseries.digest t.ts) in
  let h = Fnv.add_int64 h (Rasdb.digest t.db) in
  Fnv.add_int64 h t.alert_digest

(* ---------------------------------------------------------------- *)
(* Postmortem bundles *)

let jstr s = "\"" ^ Export.json_escape s ^ "\""

let jfloat v =
  match classify_float v with
  | FP_nan | FP_infinite -> "0"
  | _ -> Printf.sprintf "%.17g" v

let add_list buf render = function
  | [] -> Buffer.add_string buf "[]"
  | items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          render x)
        items;
      Buffer.add_char buf ']'

let render_alert buf (a : alert) =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"rule\":%s,\"severity\":%s,\"series\":%s,\"rank\":%d,\"core\":%d,\
        \"window\":%d,\"at\":%d,\"value\":%s,\"threshold\":%s}"
       (jstr a.rule) (jstr (Rasdb.severity_name a.severity)) (jstr a.series)
       a.rank a.core a.window a.at (jfloat a.value) (jfloat a.threshold))

let render_ras buf (r : Rasdb.record) =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"seq\":%d,\"cycle\":%d,\"rank\":%d,\"severity\":%s,\
        \"component\":%s,\"message\":%s}"
       r.Rasdb.seq r.Rasdb.cycle r.Rasdb.rank
       (jstr (Rasdb.severity_name r.Rasdb.severity))
       (jstr r.Rasdb.component) (jstr r.Rasdb.message))

(* Last-N spans per (rank, core), rendered in (rank, core, seq) order. *)
let postmortem_spans obs ~per_scope =
  let by_scope = Hashtbl.create 32 in
  List.iter
    (fun (s : Obs.span) ->
      let k = (s.Obs.rank, s.Obs.core) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_scope k) in
      Hashtbl.replace by_scope k (s :: prev))
    (Obs.spans obs);
  Hashtbl.fold
    (fun scope spans acc ->
      let last =
        List.sort (fun (a : Obs.span) b -> compare b.Obs.seq a.Obs.seq) spans
        |> List.filteri (fun i _ -> i < per_scope)
        |> List.sort (fun (a : Obs.span) b -> compare a.Obs.seq b.Obs.seq)
      in
      (scope, last) :: acc)
    by_scope []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.concat_map snd

let capture_report t ~label ~now ~trigger_json ~implicated =
  if List.length t.reports >= t.recorder.max_reports then
    t.captures_suppressed <- t.captures_suppressed + 1
  else begin
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"schema\":\"bg-health-postmortem-v1\",";
    Buffer.add_string buf (Printf.sprintf "\"label\":%s," (jstr label));
    Buffer.add_string buf (Printf.sprintf "\"at\":%d," now);
    Buffer.add_string buf
      (Printf.sprintf "\"snap\":%s," (jstr (t.snap_provider ())));
    Buffer.add_string buf (Printf.sprintf "\"trigger\":%s," trigger_json);
    (* Implicated series: full retained window history, every kind and
       every (rank, core) scope carrying the metric. *)
    Buffer.add_string buf "\"implicated_series\":";
    let series_ids =
      List.concat_map
        (fun (subsystem, name) ->
          Timeseries.series_matching t.ts ~subsystem ~name)
        (List.sort_uniq compare implicated)
    in
    add_list buf
      (fun (id : Timeseries.id) ->
        let pts = Timeseries.points t.ts id in
        let len = List.length pts in
        let pts =
          List.filteri (fun i _ -> i >= len - t.recorder.series_windows) pts
        in
        Buffer.add_string buf
          (Printf.sprintf
             "{\"subsystem\":%s,\"metric\":%s,\"kind\":%s,\"rank\":%d,\
              \"core\":%d,\"points\":"
             (jstr id.Timeseries.key.Obs.subsystem)
             (jstr id.Timeseries.key.Obs.name)
             (jstr (Timeseries.kind_name id.Timeseries.kind))
             id.Timeseries.key.Obs.rank id.Timeseries.key.Obs.core);
        add_list buf
          (fun (p : Timeseries.point) ->
            Buffer.add_string buf
              (Printf.sprintf "{\"window\":%d,\"at\":%d,\"v\":%s}"
                 p.Timeseries.window p.Timeseries.at (jfloat p.Timeseries.v)))
          pts;
        Buffer.add_char buf '}')
      series_ids;
    Buffer.add_char buf ',';
    (* Last-N spans per scope. *)
    Buffer.add_string buf "\"spans\":";
    add_list buf
      (fun (s : Obs.span) ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"cat\":%s,\"name\":%s,\"rank\":%d,\"core\":%d,\"start\":%d,\
              \"finish\":%d,\"depth\":%d,\"seq\":%d}"
             (jstr s.Obs.cat) (jstr s.Obs.name) s.Obs.rank s.Obs.core
             s.Obs.start s.Obs.finish s.Obs.depth s.Obs.seq))
      (postmortem_spans (Timeseries.obs t.ts)
         ~per_scope:t.recorder.spans_per_scope);
    Buffer.add_char buf ',';
    (* Causal neighborhood: the last nodes minted at or before the
       trigger, plus every edge joining two of them. *)
    Buffer.add_string buf "\"causal\":{\"nodes\":";
    let nodes, edges =
      match t.causal with
      | None -> ([], [])
      | Some g ->
          let before =
            List.filter (fun (n : Causal.node) -> n.Causal.at <= now)
              (Causal.nodes g)
          in
          let len = List.length before in
          let keep =
            List.filteri (fun i _ -> i >= len - t.recorder.causal_last) before
          in
          let ids =
            List.fold_left
              (fun acc (n : Causal.node) -> n.Causal.id :: acc)
              [] keep
          in
          let mem id = List.mem id ids in
          ( keep,
            List.filter
              (fun (e : Causal.edge) -> mem e.Causal.src && mem e.Causal.dst)
              (Causal.edges g) )
    in
    add_list buf
      (fun (n : Causal.node) ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"id\":%d,\"cat\":%s,\"name\":%s,\"rank\":%d,\"core\":%d,\
              \"at\":%d}"
             n.Causal.id (jstr n.Causal.cat) (jstr n.Causal.name) n.Causal.rank
             n.Causal.core n.Causal.at))
      nodes;
    Buffer.add_string buf ",\"edges\":";
    add_list buf
      (fun (e : Causal.edge) ->
        Buffer.add_string buf
          (Printf.sprintf "{\"kind\":%s,\"src\":%d,\"dst\":%d}"
             (jstr (Causal.kind_name e.Causal.kind))
             e.Causal.src e.Causal.dst))
      edges;
    Buffer.add_string buf "},";
    Buffer.add_string buf "\"ras_tail\":";
    add_list buf (render_ras buf) (Rasdb.tail t.db t.recorder.ras_tail);
    Buffer.add_char buf ',';
    Buffer.add_string buf "\"alerts\":";
    add_list buf (render_alert buf) (alerts t);
    Buffer.add_char buf '}';
    t.reports <- (label, Buffer.contents buf) :: t.reports
  end

(* ---------------------------------------------------------------- *)
(* Rule evaluation *)

let kind_for_agg = function
  | Delta | Rate -> Timeseries.Delta
  | Value -> Timeseries.Level
  | P50 -> Timeseries.P50
  | P99 -> Timeseries.P99

let evaluate t ~window ~now =
  Array.iteri
    (fun ri r ->
      let kind = kind_for_agg r.agg in
      List.iter
        (fun (id : Timeseries.id) ->
          if id.Timeseries.kind = kind then
            match Timeseries.latest t.ts id with
            | Some p when p.Timeseries.window = window ->
                let v =
                  match r.agg with
                  | Rate ->
                      p.Timeseries.v *. 1_000_000.
                      /. float_of_int (Timeseries.window_cycles t.ts)
                  | _ -> p.Timeseries.v
                in
                let key =
                  { k_rule = ri; k_rank = id.Timeseries.key.Obs.rank;
                    k_core = id.Timeseries.key.Obs.core }
                in
                if op_holds r.op v r.threshold then begin
                  let streak =
                    1 + Option.value ~default:0 (Hashtbl.find_opt t.streaks key)
                  in
                  Hashtbl.replace t.streaks key streak;
                  if streak >= r.for_windows
                     && not (Hashtbl.mem t.firing_tbl key)
                  then begin
                    let a =
                      {
                        rule = r.rule_name;
                        severity = r.severity;
                        series =
                          Printf.sprintf "%s.%s:%s" r.subsystem r.metric
                            (agg_name r.agg);
                        rank = key.k_rank;
                        core = key.k_core;
                        window;
                        at = now;
                        value = v;
                        threshold = r.threshold;
                      }
                    in
                    Hashtbl.replace t.firing_tbl key a;
                    t.alerts <- a :: t.alerts;
                    t.alert_count <- t.alert_count + 1;
                    let h = t.alert_digest in
                    let h = Fnv.add_string h a.rule in
                    let h = Fnv.add_string h a.series in
                    let h = Fnv.add_int h a.rank in
                    let h = Fnv.add_int h a.core in
                    let h = Fnv.add_int h a.window in
                    let h = Fnv.add_int64 h (Int64.bits_of_float a.value) in
                    t.alert_digest <- h;
                    t.emit a;
                    capture_report t ~label:("alert:" ^ a.rule) ~now
                      ~trigger_json:
                        (let b = Buffer.create 128 in
                         Buffer.add_string b "{\"type\":\"alert\",\"alert\":";
                         render_alert b a;
                         Buffer.add_char b '}';
                         Buffer.contents b)
                      ~implicated:[ (r.subsystem, r.metric) ]
                  end
                end
                else begin
                  Hashtbl.remove t.streaks key;
                  Hashtbl.remove t.firing_tbl key
                end
            | _ -> ())
        (Timeseries.series_matching t.ts ~subsystem:r.subsystem ~name:r.metric))
    t.rules

(* A fatal fault landing in the database triggers the recorder too —
   except health's own alert events, which already captured. *)
let on_fault_record t (r : Rasdb.record) =
  if r.Rasdb.severity = Rasdb.Error
     && not (String.equal r.Rasdb.component "health")
  then begin
    let b = Buffer.create 128 in
    Buffer.add_string b "{\"type\":\"fault\",\"record\":";
    render_ras b r;
    Buffer.add_char b '}';
    capture_report t ~label:("fault:" ^ r.Rasdb.component) ~now:r.Rasdb.cycle
      ~trigger_json:(Buffer.contents b)
      ~implicated:(t.implicate ~component:r.Rasdb.component ~rank:r.Rasdb.rank)
  end

type rule_error =
  | Unknown_series of { rule : string; series : string }
  | Bad_rule_name of string
  | Bad_window_count of { rule : string; for_windows : int }

let rule_error_message = function
  | Unknown_series { rule; series } ->
    Printf.sprintf "rule %s: no metric named %s is declared" rule series
  | Bad_rule_name name -> Printf.sprintf "bad rule name %S" name
  | Bad_window_count { rule; for_windows } ->
    Printf.sprintf "rule %s: for_windows %d < 1" rule for_windows

let check_rule r =
  if r.rule_name = "" || has_whitespace r.rule_name then Some (Bad_rule_name r.rule_name)
  else if r.for_windows < 1 then
    Some (Bad_window_count { rule = r.rule_name; for_windows = r.for_windows })
  else if not (Obs.Metric.is_declared ~subsystem:r.subsystem ~name:r.metric) then
    Some (Unknown_series { rule = r.rule_name; series = r.subsystem ^ "." ^ r.metric })
  else None

let create ?(recorder = default_recorder) ?causal ~ts ~db ~rules () =
  match List.find_map check_rule rules with
  | Some e -> Error e
  | None ->
    let t =
      {
        ts;
        db;
        rules = Array.of_list rules;
        recorder;
        causal;
        streaks = Hashtbl.create 64;
        firing_tbl = Hashtbl.create 64;
        alerts = [];
        alert_count = 0;
        alert_digest = Fnv.empty;
        emit = (fun _ -> ());
        implicate = (fun ~component:_ ~rank:_ -> []);
        snap_provider = (fun () -> "");
        reports = [];
        captures_suppressed = 0;
      }
    in
    Timeseries.on_window ts (fun ~window ~now -> evaluate t ~window ~now);
    Rasdb.on_insert db (on_fault_record t);
    Ok t
