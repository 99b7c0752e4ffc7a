type triplet = {
  tn : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable vals : float array;
  mutable len : int;
}

let triplet_create n =
  { tn = n; rows = Array.make 64 0; cols = Array.make 64 0; vals = Array.make 64 0.0; len = 0 }

let triplet_dim t = t.tn

let triplet_clear t = t.len <- 0

let triplet_count t = t.len

let grow t =
  let cap = Array.length t.rows in
  let cap' = 2 * cap in
  let extend a fillv =
    let b = Array.make cap' fillv in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.rows <- extend t.rows 0;
  t.cols <- extend t.cols 0;
  t.vals <- extend t.vals 0.0

let add t i j v =
  assert (i >= 0 && i < t.tn && j >= 0 && j < t.tn);
  if t.len = Array.length t.rows then grow t;
  t.rows.(t.len) <- i;
  t.cols.(t.len) <- j;
  t.vals.(t.len) <- v;
  t.len <- t.len + 1

type csc = {
  n : int;
  colptr : int array;
  rowind : int array;
  values : float array;
}

type pattern = { mat : csc; entry_of_triplet : int array }

(* Compression proceeds in two passes: first count per-column entries
   and sort coordinates into place, then merge duplicates while
   recording, for every original triplet entry, the stored slot it
   contributes to (entry_of_triplet), which [slots] hands to callers
   that re-stamp the same sequence.  Duplicates are summed in the
   order the (unstable) row sort leaves them in. *)
let compress t =
  let n = t.tn in
  let len = t.len in
  let count = Array.make (n + 1) 0 in
  for k = 0 to len - 1 do
    count.(t.cols.(k) + 1) <- count.(t.cols.(k) + 1) + 1
  done;
  for j = 1 to n do
    count.(j) <- count.(j) + count.(j - 1)
  done;
  (* scatter triplet indices into column buckets *)
  let next = Array.copy count in
  let order = Array.make len 0 in
  for k = 0 to len - 1 do
    let j = t.cols.(k) in
    order.(next.(j)) <- k;
    next.(j) <- next.(j) + 1
  done;
  (* within each column, sort the bucket by row *)
  for j = 0 to n - 1 do
    let lo = count.(j) and hi = count.(j + 1) in
    let seg = Array.sub order lo (hi - lo) in
    Array.sort (fun a b -> compare t.rows.(a) t.rows.(b)) seg;
    Array.blit seg 0 order lo (hi - lo)
  done;
  (* merge duplicates *)
  let colptr = Array.make (n + 1) 0 in
  let rowind_tmp = Array.make (max len 1) 0 in
  let values_tmp = Array.make (max len 1) 0.0 in
  let entry_of_triplet = Array.make len 0 in
  let stored = ref 0 in
  for j = 0 to n - 1 do
    colptr.(j) <- !stored;
    let last_row = ref (-1) in
    for p = count.(j) to count.(j + 1) - 1 do
      let k = order.(p) in
      let r = t.rows.(k) in
      if r = !last_row then begin
        let slot = !stored - 1 in
        values_tmp.(slot) <- values_tmp.(slot) +. t.vals.(k);
        entry_of_triplet.(k) <- slot
      end
      else begin
        rowind_tmp.(!stored) <- r;
        values_tmp.(!stored) <- t.vals.(k);
        entry_of_triplet.(k) <- !stored;
        last_row := r;
        incr stored
      end
    done
  done;
  colptr.(n) <- !stored;
  let mat =
    {
      n;
      colptr;
      rowind = Array.sub rowind_tmp 0 !stored;
      values = Array.sub values_tmp 0 !stored;
    }
  in
  { mat; entry_of_triplet }

let csc_of_pattern p = p.mat

let slots p = Array.copy p.entry_of_triplet

let mul_vec a x =
  assert (Array.length x = a.n);
  let y = Array.make a.n 0.0 in
  for j = 0 to a.n - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
        y.(a.rowind.(p)) <- y.(a.rowind.(p)) +. (a.values.(p) *. xj)
      done
  done;
  y

let to_dense a =
  let d = Dense.create a.n in
  for j = 0 to a.n - 1 do
    for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      Dense.add_entry d a.rowind.(p) j a.values.(p)
    done
  done;
  d

let nnz a = a.colptr.(a.n)
