let shift_for n =
  let b = ref 0 in
  while 1 lsl !b < n do
    incr b
  done;
  !b

(* [max_int asr shift] packs, and so does its negation; one more does not. *)
let fits ~shift k =
  let bound = max_int asr shift in
  k <= bound && k >= -bound

(* Step for step [Stdlib.Array.sort]: the same ternary heap, the same
   child chosen among equal keys, the same writes.  Stdlib's [maxson]
   raises [Bottom i] when [i] has no child; here that is the test
   [3i + 1 >= l] before each descent. *)
let sort ~shift ~len:l a =
  if l < 0 || l > Array.length a then invalid_arg "Heapsort.sort: bad length";
  (* the child of a node, whose first child is [i31 < l], with the largest
     key; the first of equal children wins *)
  let maxson l i31 =
    if i31 + 2 < l then begin
      let x =
        if a.(i31) asr shift < a.(i31 + 1) asr shift then i31 + 1 else i31
      in
      if a.(x) asr shift < a.(i31 + 2) asr shift then i31 + 2 else x
    end
    else if i31 + 1 < l && a.(i31) asr shift < a.(i31 + 1) asr shift then
      i31 + 1
    else i31
  in
  let rec trickle l i e =
    let i31 = i + i + i + 1 in
    if i31 >= l then a.(i) <- e
    else begin
      let j = maxson l i31 in
      if a.(j) asr shift > e asr shift then begin
        a.(i) <- a.(j);
        trickle l j e
      end
      else a.(i) <- e
    end
  in
  let rec bubble l i =
    let i31 = i + i + i + 1 in
    if i31 >= l then i
    else begin
      let j = maxson l i31 in
      a.(i) <- a.(j);
      bubble l j
    end
  in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if a.(father) asr shift < e asr shift then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end
