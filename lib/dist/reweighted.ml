let component_grid (d : Base.t) n =
  let q_lo = d.quantile 1e-9 in
  let q_hi = d.quantile (1.0 -. 1e-9) in
  if q_lo > 0.0 then Numerics.Interp.logspace q_lo q_hi n
  else Numerics.Interp.linspace q_lo q_hi n

(* Prepared state: the quantile-spanning grid and the prior density
   tabulated on it, per continuous component.  Building this is the
   expensive half of a reweighting (two quantile inversions plus a pdf
   evaluation per grid point); once cached, each posterior query is one
   weight evaluation and one multiply per point. *)
type prepared_cont = { dist : Base.t; grid : float array; density : float array }

type part = P_atom of float | P_cont of prepared_cont

type prepared = { parts : (float * part) list }

let prepare ?(grid_size = 1025) belief =
  let parts =
    List.map
      (fun (w, c) ->
        match (c : Mixture.component) with
        | Mixture.Atom a -> (w, P_atom a)
        | Mixture.Cont d ->
          let grid = component_grid d grid_size in
          let n = Array.length grid in
          let density = Array.create_float n in
          for i = 0 to n - 1 do
            density.(i) <- d.Base.pdf grid.(i)
          done;
          (w, P_cont { dist = d; grid; density }))
      (Mixture.components belief)
  in
  { parts }

let prepared_conts prepared =
  List.filter_map
    (function
      | _, P_atom _ -> None
      | _, P_cont { dist; grid; _ } -> Some (dist, grid))
    prepared.parts

(* [reweight ~consume] — with [~consume:true] the prepared density
   tables are multiplied in place and handed to the posteriors, which
   spares one grid-sized array per component when the prepared state is
   used once ([posterior]); a cached state is never consumed. *)
let reweight ~consume prepared ~cont_weight ~atom_weight =
  let ci = ref (-1) in
  let updated =
    List.map
      (fun (w, part) ->
        match part with
        | P_atom a ->
          let f = atom_weight a in
          if f < 0.0 || not (Float.is_finite f) then
            invalid_arg "Reweighted.posterior: bad weight at atom";
          (w *. f, Mixture.Atom a)
        | P_cont { dist = d; grid; density } ->
          incr ci;
          let c = !ci in
          let n = Array.length grid in
          let values = if consume then density else Array.create_float n in
          (try
             for i = 0 to n - 1 do
               let x = grid.(i) in
               let wt = cont_weight c i x in
               if wt < 0.0 || not (Float.is_finite wt) then
                 invalid_arg
                   (Printf.sprintf "Reweighted.posterior: bad weight %g at %g"
                      wt x);
               (* Same operand order as the historical pdf closure
                  [d.pdf x *. weight x], so the tabulated path is
                  bit-identical to the recomputing one. *)
               values.(i) <- density.(i) *. wt
             done;
             let d', z =
               Base.of_grid_values
                 ~name:(d.Base.name ^ " | reweighted")
                 ~grid ~values ()
             in
             (w *. z, Mixture.Cont d')
           with Invalid_argument msg
             when msg = "Dist.of_grid_pdf: density integrates to zero" ->
             (0.0, Mixture.Cont d)))
      prepared.parts
  in
  let evidence = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 updated in
  if evidence <= 0.0 then
    invalid_arg "Reweighted.posterior: weight annihilates all mass";
  let normalised = List.map (fun (w, c) -> (w /. evidence, c)) updated in
  (Mixture.make normalised, evidence)

let posterior_prepared_tables = reweight ~consume:false

let posterior_prepared prepared ~weight =
  posterior_prepared_tables prepared
    ~cont_weight:(fun _ _ x -> weight x)
    ~atom_weight:weight

let posterior ?grid_size belief ~weight =
  reweight ~consume:true (prepare ?grid_size belief)
    ~cont_weight:(fun _ _ x -> weight x)
    ~atom_weight:weight
