(** Bit sets: a growable set of non-negative ints (the reservation
    scheduler's busy cycles, which grow as the schedule does) and the
    fixed-shape bit matrix that holds the paper's reachability bit maps
    (one row per DAG node, "each node's map is initialized to indicate
    that a node can reach itself").

    Indices are non-negative: [set]/[mem] raise [Invalid_argument] on a
    negative index.  (A negative index would otherwise evaluate
    [1 lsl (i mod bits_per_word)] with a negative shift count, which is
    undefined and used to corrupt word 0 silently.) *)

type t = { mutable words : int array }

let bits_per_word = Sys.int_size

let create () = { words = Array.make 1 0 }

let capacity t = Array.length t.words * bits_per_word

let negative who = invalid_arg ("Bitset." ^ who ^ ": negative index")

let ensure t i =
  let need = (i / bits_per_word) + 1 in
  if need > Array.length t.words then begin
    let words = Array.make (max need (2 * Array.length t.words)) 0 in
    Array.blit t.words 0 words 0 (Array.length t.words);
    t.words <- words
  end

let set t i =
  if i < 0 then negative "set";
  ensure t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let mem t i =
  if i < 0 then negative "mem";
  i < capacity t
  && t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

(** Fixed-shape two-dimensional bit matrix stored as one contiguous int
    array, [words_per_row] words per row.  This is the arena form of the
    paper's reachability bit maps: one row per DAG node, and the §2 merge
    step ("bitmap_for_a = bitmap_for_a OR bitmap_for_b") is a row-over-row
    OR with zero per-arc allocation.  Unlike {!t}, rows do not grow —
    column indices at or past [cols] are out of range for [set]/[clear]
    (and simply absent for [mem]). *)
module Matrix = struct
  type m = {
    rows : int;
    cols : int;
    words_per_row : int;
    data : int array;
  }

  let mneg who = invalid_arg ("Bitset.Matrix." ^ who ^ ": negative index")

  let create ~rows ~cols =
    if rows < 0 || cols < 0 then
      invalid_arg "Bitset.Matrix.create: negative dimension";
    let words_per_row = (cols + bits_per_word - 1) / bits_per_word in
    { rows; cols; words_per_row; data = Array.make (rows * words_per_row) 0 }

  let rows m = m.rows
  let cols m = m.cols

  let check_row who m i =
    if i < 0 then mneg who;
    if i >= m.rows then invalid_arg ("Bitset.Matrix." ^ who ^ ": row out of range")

  let set m i j =
    check_row "set" m i;
    if j < 0 then mneg "set";
    if j >= m.cols then invalid_arg "Bitset.Matrix.set: column out of range";
    let base = i * m.words_per_row in
    let w = base + (j / bits_per_word) and b = j mod bits_per_word in
    m.data.(w) <- m.data.(w) lor (1 lsl b)

  let clear m i j =
    check_row "clear" m i;
    if j < 0 then mneg "clear";
    if j < m.cols then begin
      let base = i * m.words_per_row in
      let w = base + (j / bits_per_word) and b = j mod bits_per_word in
      m.data.(w) <- m.data.(w) land lnot (1 lsl b)
    end

  let mem m i j =
    check_row "mem" m i;
    if j < 0 then mneg "mem";
    j < m.cols
    && m.data.((i * m.words_per_row) + (j / bits_per_word))
         land (1 lsl (j mod bits_per_word))
       <> 0

  let clear_row m i =
    check_row "clear_row" m i;
    Array.fill m.data (i * m.words_per_row) m.words_per_row 0

  (** [union_rows m ~into ~from]: row [into] := row [into] OR row [from] —
      the §2 reachability merge, allocation-free. *)
  let union_rows m ~into ~from =
    check_row "union_rows" m into;
    check_row "union_rows" m from;
    let bi = into * m.words_per_row and bf = from * m.words_per_row in
    for k = 0 to m.words_per_row - 1 do
      let w = m.data.(bf + k) in
      if w <> 0 then m.data.(bi + k) <- m.data.(bi + k) lor w
    done

  let row_cardinal m i =
    check_row "row_cardinal" m i;
    let base = i * m.words_per_row in
    let acc = ref 0 in
    for k = 0 to m.words_per_row - 1 do
      acc := !acc + popcount_word m.data.(base + k)
    done;
    !acc

  let iter_row f m i =
    check_row "iter_row" m i;
    let base = i * m.words_per_row in
    for k = 0 to m.words_per_row - 1 do
      let w = m.data.(base + k) in
      if w <> 0 then
        for b = 0 to bits_per_word - 1 do
          if w land (1 lsl b) <> 0 then f ((k * bits_per_word) + b)
        done
    done

  let row_equal a i b j =
    check_row "row_equal" a i;
    check_row "row_equal" b j;
    let wa = a.words_per_row and wb = b.words_per_row in
    let n = max wa wb in
    let ok = ref true in
    for k = 0 to n - 1 do
      let x = if k < wa then a.data.((i * wa) + k) else 0 in
      let y = if k < wb then b.data.((j * wb) + k) else 0 in
      if x <> y then ok := false
    done;
    !ok

  (** [row_subset a i b j]: every element of row [i] of [a] is in row
      [j] of [b] (shape-independent). *)
  let row_subset a i b j =
    check_row "row_subset" a i;
    check_row "row_subset" b j;
    let wa = a.words_per_row and wb = b.words_per_row in
    let ok = ref true in
    for k = 0 to wa - 1 do
      let y = if k < wb then b.data.((j * wb) + k) else 0 in
      if a.data.((i * wa) + k) land lnot y <> 0 then ok := false
    done;
    !ok
end
