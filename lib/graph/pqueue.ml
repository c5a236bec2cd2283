type t = {
  mutable keys : float array;
  mutable payload : int array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { keys = Array.make capacity 0.0; payload = Array.make capacity 0; size = 0 }

let is_empty q = q.size = 0
let length q = q.size

let grow q =
  let capacity = 2 * Array.length q.keys in
  let keys = Array.make capacity 0.0 and payload = Array.make capacity 0 in
  Array.blit q.keys 0 keys 0 q.size;
  Array.blit q.payload 0 payload 0 q.size;
  q.keys <- keys;
  q.payload <- payload

let swap q i j =
  let k = q.keys.(i) and p = q.payload.(i) in
  q.keys.(i) <- q.keys.(j);
  q.payload.(i) <- q.payload.(j);
  q.keys.(j) <- k;
  q.payload.(j) <- p

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if q.keys.(i) < q.keys.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && q.keys.(left) < q.keys.(!smallest) then smallest := left;
  if right < q.size && q.keys.(right) < q.keys.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push q ~key v =
  if q.size = Array.length q.keys then grow q;
  q.keys.(q.size) <- key;
  q.payload.(q.size) <- v;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let key = q.keys.(0) and v = q.payload.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.keys.(0) <- q.keys.(q.size);
      q.payload.(0) <- q.payload.(q.size);
      sift_down q 0
    end;
    Some (key, v)
  end

let clear q = q.size <- 0

module Int_heap = struct
  type t = {
    mutable keys : int array;
    mutable payload : int array;
    mutable size : int;
  }

  let create ?(capacity = 16) () =
    let capacity = max capacity 1 in
    { keys = Array.make capacity 0; payload = Array.make capacity 0; size = 0 }

  let is_empty q = q.size = 0
  let length q = q.size

  let grow q =
    let capacity = 2 * Array.length q.keys in
    let keys = Array.make capacity 0 and payload = Array.make capacity 0 in
    Array.blit q.keys 0 keys 0 q.size;
    Array.blit q.payload 0 payload 0 q.size;
    q.keys <- keys;
    q.payload <- payload

  let swap q i j =
    let k = q.keys.(i) and p = q.payload.(i) in
    q.keys.(i) <- q.keys.(j);
    q.payload.(i) <- q.payload.(j);
    q.keys.(j) <- k;
    q.payload.(j) <- p

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if q.keys.(i) < q.keys.(parent) then begin
        swap q i parent;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < q.size && q.keys.(left) < q.keys.(!smallest) then smallest := left;
    if right < q.size && q.keys.(right) < q.keys.(!smallest) then
      smallest := right;
    if !smallest <> i then begin
      swap q i !smallest;
      sift_down q !smallest
    end

  let push q ~key v =
    if q.size = Array.length q.keys then grow q;
    q.keys.(q.size) <- key;
    q.payload.(q.size) <- v;
    q.size <- q.size + 1;
    sift_up q (q.size - 1)

  let min_key q = if q.size = 0 then max_int else q.keys.(0)
  let min_payload q = q.payload.(0)

  let drop_min q =
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.keys.(0) <- q.keys.(q.size);
      q.payload.(0) <- q.payload.(q.size);
      sift_down q 0
    end

  let clear q = q.size <- 0
end
