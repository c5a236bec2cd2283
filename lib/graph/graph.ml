type t = { adj : (int * float) array array }
type edge = { u : int; v : int; w : float }

let n g = Array.length g.adj

let of_edges ~n:nv edge_list =
  if nv < 0 then invalid_arg "Graph.of_edges: negative n";
  let check v =
    if v < 0 || v >= nv then
      invalid_arg (Printf.sprintf "Graph.of_edges: vertex %d out of [0,%d)" v nv)
  in
  (* Collapse parallel edges keeping the lightest, drop self loops. Keys
     pack the normalized pair into one int (u < v < 2^31), so hashing does
     not walk a tuple; the rows are sorted below, so the table's iteration
     order never shows in the result. *)
  let best = Hashtbl.create (List.length edge_list * 2) in
  List.iter
    (fun { u; v; w } ->
      check u;
      check v;
      if w <= 0.0 then invalid_arg "Graph.of_edges: non-positive weight";
      if u <> v then begin
        let key = if u < v then (u lsl 31) lor v else (v lsl 31) lor u in
        match Hashtbl.find_opt best key with
        | Some w' when w' <= w -> ()
        | _ -> Hashtbl.replace best key w
      end)
    edge_list;
  let deg = Array.make nv 0 in
  Hashtbl.iter
    (fun key _ ->
      let u = key lsr 31 and v = key land 0x7FFFFFFF in
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    best;
  let adj = Array.init nv (fun v -> Array.make deg.(v) (0, 0.0)) in
  let fill = Array.make nv 0 in
  Hashtbl.iter
    (fun key w ->
      let u = key lsr 31 and v = key land 0x7FFFFFFF in
      adj.(u).(fill.(u)) <- (v, w);
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- (u, w);
      fill.(v) <- fill.(v) + 1)
    best;
  (* Sort rows for reproducible port numbering: by neighbour id (unique
     within a row once parallel edges are collapsed). *)
  Array.iter
    (fun row -> Array.sort (fun (a, _) (b, _) -> Int.compare a b) row)
    adj;
  { adj }

let m g = Array.fold_left (fun acc row -> acc + Array.length row) 0 g.adj / 2
let degree g v = Array.length g.adj.(v)
let neighbors g v = g.adj.(v)

let iter_neighbors g v f = Array.iter (fun (u, w) -> f u w) g.adj.(v)

let fold_neighbors g v f init =
  Array.fold_left (fun acc (u, w) -> f acc u w) init g.adj.(v)

let weight g u v =
  let row = g.adj.(u) in
  let rec scan i =
    if i >= Array.length row then None
    else
      let x, w = row.(i) in
      if x = v then Some w else scan (i + 1)
  in
  scan 0

let has_edge g u v = weight g u v <> None

let port g u v =
  let row = g.adj.(u) in
  let rec scan i =
    if i >= Array.length row then None
    else if fst row.(i) = v then Some i
    else scan (i + 1)
  in
  scan 0

let endpoint g u p =
  let row = g.adj.(u) in
  if p < 0 || p >= Array.length row then invalid_arg "Graph.endpoint: bad port";
  row.(p)

let edges g =
  let acc = ref [] in
  Array.iteri
    (fun u row ->
      Array.iter (fun (v, w) -> if u < v then acc := { u; v; w } :: !acc) row)
    g.adj;
  !acc

let max_degree g = Array.fold_left (fun acc row -> max acc (Array.length row)) 0 g.adj

let total_weight g =
  List.fold_left (fun acc { w; _ } -> acc +. w) 0.0 (edges g)

let map_weights g f =
  let adj =
    Array.mapi
      (fun u row ->
        Array.map
          (fun (v, w) ->
            let a, b = if u < v then (u, v) else (v, u) in
            (v, f a b w))
          row)
      g.adj
  in
  { adj }

let unweighted g = map_weights g (fun _ _ _ -> 1.0)

let subgraph g ~keep =
  let nv = n g in
  let old_to_new = Array.make nv (-1) in
  let count = ref 0 in
  for v = 0 to nv - 1 do
    if keep v then begin
      old_to_new.(v) <- !count;
      incr count
    end
  done;
  let new_to_old = Array.make !count 0 in
  for v = 0 to nv - 1 do
    if old_to_new.(v) >= 0 then new_to_old.(old_to_new.(v)) <- v
  done;
  let es = ref [] in
  List.iter
    (fun { u; v; w } ->
      if old_to_new.(u) >= 0 && old_to_new.(v) >= 0 then
        es := { u = old_to_new.(u); v = old_to_new.(v); w } :: !es)
    (edges g);
  (of_edges ~n:!count !es, new_to_old)

let union_edges g extra =
  of_edges ~n:(n g) (List.rev_append extra (edges g))

let components g =
  let nv = n g in
  let label = Array.make nv (-1) in
  let next = ref 0 in
  let stack = Stack.create () in
  for s = 0 to nv - 1 do
    if label.(s) < 0 then begin
      let c = !next in
      incr next;
      Stack.push s stack;
      label.(s) <- c;
      while not (Stack.is_empty stack) do
        let v = Stack.pop stack in
        iter_neighbors g v (fun u _ ->
            if label.(u) < 0 then begin
              label.(u) <- c;
              Stack.push u stack
            end)
      done
    end
  done;
  label

let is_connected g =
  let nv = n g in
  nv <= 1 || Array.for_all (fun c -> c = 0) (components g)

let largest_component g =
  let label = components g in
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
    label;
  let best = ref 0 and best_count = ref (-1) in
  Hashtbl.iter
    (fun c k ->
      if k > !best_count then begin
        best := c;
        best_count := k
      end)
    counts;
  subgraph g ~keep:(fun v -> label.(v) = !best)

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, maxdeg=%d)" (n g) (m g) (max_degree g)
