(* Machine speed, measured beside the work.

   The benchmark runs on shared machines whose speed changes by more than
   half within seconds and over tens of minutes, with the same code and
   the same inputs.  So every end-to-end time is taken between two
   samples of a fixed calibration kernel (speed_kernel.exe, built beside
   confbench.exe) and scaled by [reference_s / (mean of the two
   samples)]: the time the work would have taken on a machine that runs
   the kernel in [reference_s].  A change to confcase moves the work,
   never the kernel, so it shows in the scaled time in full; a slower
   machine moves both, and cancels. *)

let reference_s = 0.05

(* One sample: the kernel's own timing of itself, in seconds. *)
let sample exe =
  let r = Proc.run exe [] in
  match String.split_on_char ' ' r.stdout with
  | s :: _ when Proc.exited_ok r -> (
    match float_of_string_opt s with Some t when t > 0.0 -> t | _ -> failwith ("speed kernel: " ^ r.stdout))
  | _ -> failwith "speed kernel failed"

type meter = { exe : string; mutable last : float; mutable samples : float list }

let meter exe =
  let s = sample exe in
  { exe; last = s; samples = [ s ] }

(* [measure m f] — [f ()] and the factor that scales its times to the
   reference machine; the meter's last sample and one taken after [f]
   bracket it. *)
let measure m f =
  let v = f () in
  let after = sample m.exe in
  let factor = reference_s /. (0.5 *. (m.last +. after)) in
  m.last <- after;
  m.samples <- after :: m.samples;
  (v, factor)

(* The calibration samples taken so far, in seconds. *)
let samples m = Array.of_list m.samples
