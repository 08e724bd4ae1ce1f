(* The programs the workloads run, built through the public frontends
   exactly as a user would: Devito operators from symbolic equations and
   PSyclone kernels through its code generator. *)

type kind = Heat | Wave

let kind_name = function Heat -> "heat" | Wave -> "wave"

(* The Laplacian is scaled by 0.5 (heat) or 2.25 (wave), plus [perturb]:
   the serve-mix generator perturbs it to make never-seen programs. *)
let devito ?(perturb = 0.) ~kind ~dims ~so ~n ~steps () : Ir.Op.t =
  let open Devito.Symbolic in
  let shape = List.init dims (fun _ -> n) in
  let name = Printf.sprintf "%s%dd" (kind_name kind) dims in
  match kind with
  | Heat ->
      let u = function_ ~space_order: so "u" (grid ~dt: 0.1 shape) in
      let c = 0.5 +. perturb in
      snd (Devito.Operator.operator ~name ~timesteps: steps (eq (Dt u) (f c *: laplace u)))
  | Wave ->
      let u =
        function_ ~space_order: so ~time_order: 2 "u" (grid ~dt: 0.02 shape)
      in
      let c = 2.25 +. perturb in
      snd
        (Devito.Operator.operator ~name ~timesteps: steps
           (eq (Dt2 u) (f c *: laplace u)))

let pw ~shape = Psyclone.Codegen.compile (Psyclone.Benchkernels.pw_advection ~shape)

let traadv ~shape =
  Psyclone.Codegen.compile
    (Psyclone.Benchkernels.tracer_advection ~iterations: 1 ~shape ())

(* The distributed target every solve runs: Slice2d, face exchanges,
   communication/computation overlap on, untiled. *)
let solve_target ~ranks =
  Core.Pipeline.Distributed_cpu
    {
      ranks;
      strategy = Core.Decomposition.Slice2d;
      mode = Core.Decomposition.Faces;
      tiles = [];
      overlap = true;
    }

let executor = Exec_compile.executor
