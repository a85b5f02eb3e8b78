(** The per-byte JSON reader, kept as the yardstick for [Json.of_string]'s
    differential tests.  Not for pipeline use. *)

val of_string : string -> (Ds_obs.Json.t, string) result
