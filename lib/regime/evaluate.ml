type outcome = {
  policy : Policy.t;
  systems : int;
  accepted : int;
  accepted_bad : int;
  rejected_good : int;
  mean_accepted_pfd : float;
  expected_accidents_per_1000_demands : float;
  testing_demands : int;
}

(* Per-system tallies: integer counts plus the accepted-pfd sum. *)
type tally = {
  t_accepted : int;
  t_accepted_bad : int;
  t_rejected_good : int;
  t_pfd_sum : float;
  t_testing : int;
}

(* [size] systems simulated from [rng], one after another: draw the true
   pfd, assess it, decide, and count. *)
let tally_systems ~world ~assessor ~band ~policy ~size rng =
  let accepted = ref 0 in
  let accepted_bad = ref 0 in
  let rejected_good = ref 0 in
  let pfd_sum = ref 0.0 in
  let testing = ref 0 in
  for _ = 1 to size do
    let true_pfd = Population.sample world rng in
    let belief = Assessor.assess assessor rng ~true_pfd in
    let good = Population.is_in_band world ~band true_pfd in
    let verdict = Policy.accepts policy ~band belief rng ~true_pfd in
    testing := !testing + Policy.testing_cost policy;
    if verdict then begin
      incr accepted;
      pfd_sum := !pfd_sum +. true_pfd;
      if not good then incr accepted_bad
    end
    else if good then incr rejected_good
  done;
  {
    t_accepted = !accepted;
    t_accepted_bad = !accepted_bad;
    t_rejected_good = !rejected_good;
    t_pfd_sum = !pfd_sum;
    t_testing = !testing;
  }

let outcome_of_tally ~policy ~systems t =
  let mean_accepted_pfd =
    if t.t_accepted = 0 then 0.0
    else t.t_pfd_sum /. float_of_int t.t_accepted
  in
  let acceptance_rate = float_of_int t.t_accepted /. float_of_int systems in
  {
    policy;
    systems;
    accepted = t.t_accepted;
    accepted_bad = t.t_accepted_bad;
    rejected_good = t.t_rejected_good;
    mean_accepted_pfd;
    expected_accidents_per_1000_demands =
      mean_accepted_pfd *. 1000.0 *. acceptance_rate;
    testing_demands = t.t_testing;
  }

let run ~world ~assessor ~band ~policy ~systems ~seed =
  if systems < 1 then invalid_arg "Evaluate.run: systems < 1";
  outcome_of_tally ~policy ~systems
    (tally_systems ~world ~assessor ~band ~policy ~size:systems
       (Numerics.Rng.create seed))

let compare ~world ~assessor ~band ~policies ~systems ~seed =
  List.map
    (fun policy -> run ~world ~assessor ~band ~policy ~systems ~seed)
    policies

(* Parallel regime evaluation under [Numerics.Parallel]'s stream rule:
   each chunk tallies its share of the systems from its own stream, and
   the tallies merge in chunk order — integer counts exactly, the pfd sum
   left to right — so the outcome is a pure function of (seed, chunks).
   The chunked stream differs from the scalar [run] stream: one generator
   is replaced by [chunks] split streams. *)
let run_par ?pool ?chunks ~world ~assessor ~band ~policy ~systems ~seed () =
  if systems < 1 then invalid_arg "Evaluate.run_par: systems < 1";
  outcome_of_tally ~policy ~systems
    (Numerics.Parallel.fan_out ?pool ?chunks ~name:"Evaluate.run_par"
       ~n:systems ~seed
       ~init:
         {
           t_accepted = 0;
           t_accepted_bad = 0;
           t_rejected_good = 0;
           t_pfd_sum = 0.0;
           t_testing = 0;
         }
       ~merge:(fun a b ->
         {
           t_accepted = a.t_accepted + b.t_accepted;
           t_accepted_bad = a.t_accepted_bad + b.t_accepted_bad;
           t_rejected_good = a.t_rejected_good + b.t_rejected_good;
           t_pfd_sum = a.t_pfd_sum +. b.t_pfd_sum;
           t_testing = a.t_testing + b.t_testing;
         })
       (tally_systems ~world ~assessor ~band ~policy))

let compare_par ?pool ?chunks ~world ~assessor ~band ~policies ~systems ~seed
    () =
  List.map
    (fun policy ->
      run_par ?pool ?chunks ~world ~assessor ~band ~policy ~systems ~seed ())
    policies

let summary_table outcomes =
  let columns =
    [ { Report.Table.header = "policy"; align = Report.Table.Left };
      { Report.Table.header = "accepted"; align = Report.Table.Right };
      { Report.Table.header = "accepted bad"; align = Report.Table.Right };
      { Report.Table.header = "rejected good"; align = Report.Table.Right };
      { Report.Table.header = "mean pfd of fleet"; align = Report.Table.Right };
      { Report.Table.header = "tests"; align = Report.Table.Right } ]
  in
  let rows =
    List.map
      (fun o ->
        [ Policy.label o.policy;
          Printf.sprintf "%d/%d" o.accepted o.systems;
          string_of_int o.accepted_bad;
          string_of_int o.rejected_good;
          Report.Table.float_cell o.mean_accepted_pfd;
          string_of_int o.testing_demands ])
      outcomes
  in
  Report.Table.render ~columns ~rows
