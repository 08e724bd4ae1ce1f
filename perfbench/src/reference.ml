(* Hand-written loops for the two solve kernels, with no dependency on the
   stack's compiler or executors.  They are the independent reference
   every timed solve is checked against, and their speed is the ceiling
   the compiled executor is compared with.

   Each loop repeats the operation order of the lowered expression
   (Devito emits the Laplacian terms as left-to-right sums of
   weight * access, dimension 0 before dimension 1, then scales by the
   coefficient and by the time-step factor), so agreement is bitwise, not
   within a tolerance.  Arrays are the row-major contents of a field
   including its ghost margin; the margin is never written, as in the
   generated code, and time levels rotate oldest-first exactly like the
   operator's scf.yield. *)

type kernel = Heat2d_so2 | Wave2d_so4

let kernel_name = function Heat2d_so2 -> "heat2d-so2" | Wave2d_so4 -> "wave2d-so4"
let radius = function Heat2d_so2 -> 1 | Wave2d_so4 -> 2
let levels = function Heat2d_so2 -> 2 | Wave2d_so4 -> 3
let kind = function Heat2d_so2 -> Programs.Heat | Wave2d_so4 -> Programs.Wave
let space_order = function Heat2d_so2 -> 2 | Wave2d_so4 -> 4

(* u(t+1) = u + dt * (0.5 * lap u), second-order Laplacian, dt = 0.1. *)
let heat_step ~n ~s (cur : float array) (out : float array) =
  for i = 0 to n - 1 do
    let row = ((i + 1) * s) + 1 in
    for j = 0 to n - 1 do
      let k = row + j in
      let c = Array.unsafe_get cur k in
      let d0 =
        (Array.unsafe_get cur (k - s) +. (-2.0 *. c)) +. Array.unsafe_get cur (k + s)
      in
      let d1 =
        (Array.unsafe_get cur (k - 1) +. (-2.0 *. c)) +. Array.unsafe_get cur (k + 1)
      in
      Array.unsafe_set out k (c +. (0.10000000000000001 *. (0.5 *. (d0 +. d1))))
    done
  done

(* Fourth-order central second-derivative weights as Fornberg's algorithm
   produces them in double precision (the +1 and -1 weights differ in the
   last bit). *)
let w2 = -0.083333333333333329
let wm1 = 1.3333333333333333
let wp1 = 1.3333333333333335
let w0 = -2.5

(* u(t+1) = 2u - u(t-1) + dt^2 * (2.25 * lap u), fourth-order Laplacian,
   dt = 0.02. *)
let wave_step ~n ~s (prev : float array) (cur : float array) (out : float array) =
  for i = 0 to n - 1 do
    let row = ((i + 2) * s) + 2 in
    for j = 0 to n - 1 do
      let k = row + j in
      let c = Array.unsafe_get cur k in
      let d0 =
        ((((w2 *. Array.unsafe_get cur (k - (2 * s)))
          +. (wm1 *. Array.unsafe_get cur (k - s)))
         +. (w0 *. c))
        +. (wp1 *. Array.unsafe_get cur (k + s)))
        +. (w2 *. Array.unsafe_get cur (k + (2 * s)))
      in
      let d1 =
        ((((w2 *. Array.unsafe_get cur (k - 2)) +. (wm1 *. Array.unsafe_get cur (k - 1)))
         +. (w0 *. c))
        +. (wp1 *. Array.unsafe_get cur (k + 1)))
        +. (w2 *. Array.unsafe_get cur (k + 2))
      in
      Array.unsafe_set out k
        (((2.0 *. c) -. Array.unsafe_get prev k)
        +. (0.00040000000000000002 *. (2.25 *. (d0 +. d1))))
    done
  done

(* Run [steps] time steps on copies of [inputs] (one array per time level,
   oldest first, each (n + 2r)^2) and return the levels in the operator's
   result order. *)
let run kernel ~n ~steps (inputs : float array list) : float array list =
  let s = n + (2 * radius kernel) in
  let levels_in = List.length inputs in
  if levels_in <> levels kernel then
    invalid_arg
      (Printf.sprintf "Reference.run: %s takes %d levels, got %d"
         (kernel_name kernel) (levels kernel) levels_in);
  List.iter
    (fun a ->
      if Array.length a <> s * s then invalid_arg "Reference.run: wrong field size")
    inputs;
  let bufs = Array.of_list (List.map Array.copy inputs) in
  for _ = 1 to steps do
    (match kernel with
    | Heat2d_so2 -> heat_step ~n ~s bufs.(1) bufs.(0)
    | Wave2d_so4 -> wave_step ~n ~s bufs.(1) bufs.(2) bufs.(0));
    let scratch = bufs.(0) in
    Array.blit bufs 1 bufs 0 (Array.length bufs - 1);
    bufs.(Array.length bufs - 1) <- scratch
  done;
  Array.to_list bufs

(* Interior comparison of a reference level against a result buffer of
   the same (n + 2r)^2 layout: (bitwise equal, max abs difference). *)
let compare_interior kernel ~n (expected : float array) (b : Interp.Rtval.buffer) =
  let r = radius kernel in
  let s = n + (2 * r) in
  let got =
    match b.Interp.Rtval.data with
    | Interp.Rtval.F a when Array.length a = s * s -> a
    | _ -> invalid_arg "Reference.compare_interior: result buffer layout"
  in
  let bitwise = ref true and worst = ref 0. in
  for i = r to r + n - 1 do
    for j = r to r + n - 1 do
      let k = (i * s) + j in
      let e = expected.(k) and g = got.(k) in
      if Int64.bits_of_float e <> Int64.bits_of_float g then begin
        bitwise := false;
        worst := Float.max !worst (Float.abs (e -. g));
        if Float.is_nan g || Float.is_nan e then worst := infinity
      end
    done
  done;
  (!bitwise, !worst)

(* Throughput of the hand loop on [inputs], in million point-updates per
   second (the ceiling row). *)
let mpts_s kernel ~n ~steps inputs =
  let _, dt = Clock.timed (fun () -> run kernel ~n ~steps inputs) in
  float_of_int (n * n * steps) /. dt /. 1e6
