(* The benchmark's bookkeeping, kept free of simulation so it can be
   tested on its own: metric naming rules, the result line, failure
   counting, the per-workload record whose config digest and event count
   make a label refuse different work, and the refusal to write over a
   tracked file. *)

(* ---- names ---- *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* A metric or workload name: 1-64 of [A-Za-z0-9_.-], starting with a
   letter or digit. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0] && String.for_all is_name_char s

(* A unit: 1-16 of [A-Za-z0-9_/%.-]. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s

(* ---- metrics and the result line ---- *)

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

(* Every name distinct and valid, every unit valid, every value finite:
   the problems found, empty when the set can be printed. *)
let problems metrics =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun m ->
      let dup = Hashtbl.mem seen m.name in
      Hashtbl.replace seen m.name ();
      List.filter_map Fun.id
        [
          (if valid_name m.name then None
           else Some (Printf.sprintf "invalid metric name %S" m.name));
          (if dup then Some (Printf.sprintf "duplicate metric %S" m.name)
           else None);
          (if valid_unit m.unit then None
           else Some (Printf.sprintf "invalid unit %S for %s" m.unit m.name));
          (if Float.is_finite m.value then None
           else Some (Printf.sprintf "non-finite value for %s" m.name));
        ])
    metrics

(* [%.17g] keeps every digit of a double; non-finite values are refused
   by [problems] before they get here. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

(* ---- failure counting ---- *)

(* One attempted run of the workload (a child process, or a traced
   variant of it): it either passed every output check or failed one
   (raised, exited non-zero, or produced a mismatching result). *)
type verdict = Passed | Failed of string

type tally = { attempted : int; failed : int; reasons : string list }

let tally verdicts =
  List.fold_left
    (fun t v ->
      match v with
      | Passed -> { t with attempted = t.attempted + 1 }
      | Failed why ->
        {
          attempted = t.attempted + 1;
          failed = t.failed + 1;
          reasons = t.reasons @ [ why ];
        })
    { attempted = 0; failed = 0; reasons = [] }
    verdicts

(* A counter that must repeat exactly: every repeat's value equal to the
   first. A drift is a failure, never noise. *)
let exact ~what values =
  match values with
  | [] -> Passed
  | v0 :: rest ->
    if List.for_all (fun v -> String.equal v v0) rest then Passed
    else
      Failed
        (Printf.sprintf "%s drifted across repeats: %s" what
           (String.concat " / " values))

(* ---- records: a label refuses different work ---- *)

type record = {
  workload : string;
  config_digest : string;  (** what the workload ran, at which seed *)
  events : int;  (** how much simulated work that was *)
  values : metric list;
}

let header = "xbench-record 1"

let to_string r =
  String.concat "\n"
    ([
       header;
       "workload " ^ r.workload;
       "config_digest " ^ r.config_digest;
       "events " ^ string_of_int r.events;
     ]
    @ List.map
        (fun m -> Printf.sprintf "metric %s %s %.17g" m.name m.unit m.value)
        r.values)
  ^ "\n"

let of_string text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  match lines with
  | h :: rest when String.equal h header ->
    let field key =
      List.find_map
        (fun l ->
          match String.index_opt l ' ' with
          | Some i when String.equal (String.sub l 0 i) key ->
            Some (String.sub l (i + 1) (String.length l - i - 1))
          | _ -> None)
        rest
    in
    let values =
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ "metric"; name; unit; v ] ->
            Option.map (fun value -> { name; unit; value }) (float_of_string_opt v)
          | _ -> None)
        rest
    in
    (match (field "workload", field "config_digest", field "events") with
    | Some workload, Some config_digest, Some ev -> (
      match int_of_string_opt ev with
      | Some events -> Ok { workload; config_digest; events; values }
      | None -> Error "record: bad event count")
    | _ -> Error "record: missing workload, config_digest or events")
  | _ -> Error "record: not an xbench record"

(* Two records compare only when they describe the same work: same
   workload name, same config digest, same event count. Otherwise the
   comparison is refused, never computed. *)
let comparable ~baseline ~current =
  if not (String.equal baseline.workload current.workload) then
    Error
      (Printf.sprintf "refused: workload %s vs %s" baseline.workload
         current.workload)
  else if not (String.equal baseline.config_digest current.config_digest)
  then
    Error
      (Printf.sprintf "refused: %s config digest %s vs %s — different work"
         current.workload baseline.config_digest current.config_digest)
  else if baseline.events <> current.events then
    Error
      (Printf.sprintf "refused: %s ran %d events vs %d — different work"
         current.workload baseline.events current.events)
  else Ok ()

(* (name, unit, baseline, current, current/baseline) for every metric the
   two records share. *)
let ratios ~baseline ~current =
  List.filter_map
    (fun (m : metric) ->
      List.find_opt (fun (b : metric) -> String.equal b.name m.name) baseline.values
      |> Option.map (fun (b : metric) ->
             ( m.name,
               m.unit,
               b.value,
               m.value,
               if b.value = 0. then Float.nan else m.value /. b.value )))
    current.values

(* ---- writing ---- *)

(* The benchmark writes only to a path it was given, and never over a
   file version control tracks. [tracked] answers for an existing path;
   when it cannot tell, the file counts as tracked. *)
let check_out_path ~tracked path =
  if not (Sys.file_exists path) then Ok ()
  else if tracked path then
    Error (Printf.sprintf "refusing to overwrite tracked file %s" path)
  else Ok ()

let git_tracked path =
  let cmd =
    Printf.sprintf "git ls-files --error-unmatch -- %s >/dev/null 2>&1"
      (Filename.quote path)
  in
  match Sys.command cmd with
  | 1 -> false (* git answered: not tracked *)
  | _ -> true (* tracked, or git cannot tell (no repository, no git) *)
