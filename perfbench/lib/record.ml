type metric = { name : string; value : float; unit_ : string; samples : int }

type t = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  run_id : string;
  cores : int;
  ocaml : string;
  profile : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  flags : string list;
}

let schema_version = "ses-perfbench/1"

let number f =
  if Float.is_finite f then Json.Float f
  else Json.String (if Float.is_nan f then "nan" else if f > 0. then "inf" else "-inf")

let of_number = function
  | Json.String "inf" -> Some Float.infinity
  | Json.String "-inf" -> Some Float.neg_infinity
  | Json.String "nan" -> Some Float.nan
  | j -> Json.to_float j

let to_json r =
  Json.Assoc
    [
      ("schema", Json.String schema_version);
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("seconds", Json.Int r.seconds);
      ("trace", Json.Bool r.trace);
      ("run_id", Json.String r.run_id);
      ("cores", Json.Int r.cores);
      ("ocaml", Json.String r.ocaml);
      ("profile", Json.String r.profile);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.List
          (List.map
             (fun m ->
               Json.Assoc
                 [
                   ("name", Json.String m.name);
                   ("value", number m.value);
                   ("unit", Json.String m.unit_);
                   ("samples", Json.Int m.samples);
                 ])
             r.metrics) );
      ("flags", Json.List (List.map (fun f -> Json.String f) r.flags));
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let field k conv =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error ("record: missing or ill-typed field " ^ k)
  in
  let str = function Json.String s -> Some s | _ -> None in
  let int = function Json.Int i -> Some i | _ -> None in
  let bool = function Json.Bool b -> Some b | _ -> None in
  let list = function Json.List l -> Some l | _ -> None in
  let* schema = field "schema" str in
  if not (String.equal schema schema_version) then
    Error ("record: unknown schema " ^ schema)
  else
    let* workload = field "workload" str in
    let* seed = field "seed" int in
    let* seconds = field "seconds" int in
    let* trace = field "trace" bool in
    let* run_id = field "run_id" str in
    let* cores = field "cores" int in
    let* ocaml = field "ocaml" str in
    let* profile = field "profile" str in
    let* correct = field "correct" bool in
    let* attempted = field "attempted" int in
    let* failed = field "failed" int in
    let* metric_items = field "metrics" list in
    let* flag_items = field "flags" list in
    let metric m =
      match
        ( Option.bind (Json.member "name" m) str,
          Option.bind (Json.member "value" m) of_number,
          Option.bind (Json.member "unit" m) str,
          Option.bind (Json.member "samples" m) int )
      with
      | Some name, Some value, Some unit_, Some samples ->
          Ok { name; value; unit_; samples }
      | _ -> Error "record: ill-formed metric"
    in
    let* metrics =
      List.fold_right
        (fun m acc ->
          let* acc = acc in
          let* m = metric m in
          Ok (m :: acc))
        metric_items (Ok [])
    in
    let* flags =
      List.fold_right
        (fun f acc ->
          let* acc = acc in
          match f with Json.String s -> Ok (s :: acc) | _ -> Error "record: ill-typed flag")
        flag_items (Ok [])
    in
    Ok
      {
        workload;
        seed;
        seconds;
        trace;
        run_id;
        cores;
        ocaml;
        profile;
        correct;
        attempted;
        failed;
        metrics;
        flags;
      }

let summary r =
  let finite = List.for_all (fun m -> Float.is_finite m.value) r.metrics in
  Json.Assoc
    [
      ("correct", Json.Bool (r.correct && finite));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Assoc
          (List.map
             (fun m ->
               ( m.name,
                 Json.Assoc
                   [
                     ("value", if Float.is_finite m.value then Json.Float m.value else Json.Null);
                     ("unit", Json.String m.unit_);
                   ] ))
             r.metrics) );
    ]
