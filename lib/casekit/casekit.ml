(** Public interface of the [casekit] library: goal-structured dependability
    cases, confidence propagation with dependence envelopes, multi-legged
    arguments, and a discrete Bayesian-network substrate for modelling
    dependent judgements. *)

module Node = Node
module Graph = Graph
module Generate = Generate
module Multileg = Multileg
module Bbn = Bbn
module Case_format = Case_format
module Intern = Intern
module Two_leg = Two_leg
